"""Chain-level operations: pushforward and umkehr maps across embeddings,
Thom data and Euler classes of oriented bundles, and the chord-diagram
counting operation specialized to point configurations on the manifold.

All maps come back as integer matrices in catalog order, with their chain
identities checkable exactly via ``complexes.chain_map_defect``.  Index-1
pushforward, umkehr and figure-8 counts on a surface are crossings of two
curves of branch flows (``counting.curve_intersections``), with no gate.
Their signs carry no frame along a flow: a one-dimensional W^u or W^s is
oriented by its branch's tangent (``Branch.tangent``), and one that spans
the tangent space by its point's orientation class
(``counting.orientation_class``).  A curve mapped into the surface, the
image of an embedded W^u or a W^s pulled back through the auxiliary flow,
takes its tangent from the chord of its image, since either map keeps the
order of the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import GradedComplex, chain_map_defect, homology
from .counting import (
    approach,
    backward_limit,
    boundary_operator,
    branches,
    continuation,
    curve_intersections,
    dropping,
    graded_matrices,
    hybrid_entry,
    orientation_class,
)
from .errors import (
    GeometryError,
    InternalInconsistencyError,
    OrientationError,
    StructuralValidationError,
    TransversalityError,
    UnsupportedDiagramError,
)
from .geometry.flow import fixed_time_flow, orientation_sign, orthonormalize
from .geometry.systems import DEFAULT_TOLERANCES, numpy_kernels


# -- embeddings ----------------------------------------------------------------

class EmbeddingModel:
    """A proper embedding e: P -> X between catalog Morse systems.

    Carries the map, r signed normal coordinates vanishing on the image,
    and an oriented normal frame (the coorientation).
    """

    def __init__(self, domain, codomain, embed, normal_coordinate,
                 normal_frame, codim, name="embedding", check=True,
                 n_samples=24):
        self.domain = domain
        self.codomain = codomain
        self.embed = embed
        self.normal_coordinate = normal_coordinate
        self.normal_frame = normal_frame
        self.codim = int(codim)
        self.name = name
        if self.codim != codomain.manifold.dim - domain.manifold.dim:
            raise StructuralValidationError(
                "declared codimension does not match the dimensions")
        if check and self.codim > 0:
            self._check(n_samples)

    def image(self, p_point):
        """e(p), on the codomain manifold."""
        return self.codomain.manifold.project(self.embed(p_point))

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

    return EmbeddingModel(system, system, eye,
                          lambda x: np.zeros(0),
                          lambda p: np.zeros((man.coord_dim, 0)),
                          codim=0, name="identity", check=False)


def torus_factor_circle(codomain, fixed_axis, level, amplitude=1.0,
                        phase=0.0):
    """The circle {theta_axis = level} in a torus system, with its own
    one-angle cosine function.  An axis other than 0 or 1, or a level that
    is not finite, raises ``GeometryError``."""
    from .geometry.systems import torus_cosine

    n = codomain.manifold.dim
    if n != 2:
        raise GeometryError("factor circles are built for two-dimensional tori")
    if fixed_axis not in (0, 1):
        raise GeometryError("the fixed axis of a factor circle must be 0 or "
                            "1, not %r" % (fixed_axis,))
    if not math.isfinite(level):
        raise GeometryError("the level of a factor circle must be finite, "
                            "not %r" % (level,))
    free_axis = 1 - fixed_axis
    domain = torus_cosine(1, [amplitude], [phase],
                          name="factor%d" % free_axis)

    def embed(t):
        out = np.zeros(n)
        out[fixed_axis] = level
        out[free_axis] = t[0]
        return out

    def normal_coordinate(x):
        d = (x[fixed_axis] - level + np.pi) % (2 * np.pi) - np.pi
        return np.array([d])

    e_fix = np.zeros((n, 1))
    e_fix[fixed_axis, 0] = 1.0

    return EmbeddingModel(domain, codomain, embed,
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

    def normal_coordinate(x):
        return np.array([x[2]])

    def normal_frame(p):
        return np.array([[0.0], [0.0], [1.0]])

    return EmbeddingModel(domain, codomain, embed,
                          normal_coordinate, normal_frame, codim=1,
                          name="equator")


# -- pushforward ------------------------------------------------------------------

def pushforward(emb, verify=True):
    """Chain map e_*: counts W^u(p; k) meeting W^s(x; f) across the embedding.

    Returns {degree: matrix} with rows over codomain generators: the same
    count as continuation (``hybrid_entry``), through the embedding.  The
    chain-map identity is verified exactly unless ``verify`` is False.
    """
    if emb.codim == 0:
        return continuation(emb.domain, emb.codomain)
    dom, cod = emb.domain, emb.codomain
    with dropping(dom.branches, cod.branches):
        out = graded_matrices(
            dom.indices(), cod.by_index, dom.by_index,
            lambda p_cp, x_cp: hybrid_entry(dom, cod, p_cp, x_cp,
                                            emb.image))
        if verify:
            # the differentials read the branches the entries just flew
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

def umkehr(emb, verify=True):
    """Wrong-way chain map e_! of degree -codim.

    Counts W^u(m; f) meeting W^s(p; k) across the cooriented embedding;
    signs compare the oriented tangent frame of W^u(m) (``Branch.tangent``,
    or the orientation class of m) against the pushed unstable frame of p
    followed by the normal frame.
    """
    if emb.codim == 0:
        return continuation(emb.codomain, emb.domain)
    dom, cod = emb.domain, emb.codomain
    r = emb.codim
    with dropping(dom.branches, cod.branches):
        out = graded_matrices(
            cod.indices(), lambda d: dom.by_index(d - r), cod.by_index,
            lambda m_cp, p_cp: _umkehr_entry(emb, m_cp, p_cp))
        if verify:
            # the differentials read the branches the entries just flew
            _verify_chain_map("umkehr", cod, dom, out, -r)
    return out


def _umkehr_entry(emb, m_cp, p_cp):
    if m_cp.index != p_cp.index + emb.codim:
        raise ValueError("umkehr entries need index(m) = index(p) + codim")
    if m_cp.index == 1 and p_cp.index == 0:
        return _umkehr_crossings_d1(emb, m_cp, p_cp)
    if not (m_cp.index == 2 and p_cp.index == 1 and emb.codim == 1):
        raise GeometryError(
            "umkehr case (index %d over index %d) is not implemented"
            % (m_cp.index, p_cp.index))
    # p is the maximum of the circle P, so W^s(p; k) is the point p and the
    # entry asks whether e(p) lies in W^u(m): one backward flow answers it
    z = emb.image(p_cp.point)
    man = emb.codomain.manifold
    if backward_limit(emb.codomain, z).name != m_cp.name:
        return 0
    return orientation_class(man, m_cp) * orientation_sign(
        man.oriented_tangent_basis(z), _image_frame(emb, p_cp, p_cp.point, z))


def _image_frame(emb, p_cp, at, z):
    """The pushed unstable frame of p at ``at`` followed by the normal
    frame, at the image point z: the frame every umkehr sign compares
    against."""
    pushed = emb.push_frame(at, p_cp.unstable_frame)
    nf = emb.normal_frame(at)
    cols = [pushed[:, j] for j in range(pushed.shape[1])]
    cols.extend(emb.codomain.manifold.tangent_project(z, nf[:, j])
                for j in range(nf.shape[1]))
    return orthonormalize(np.stack(cols, axis=1))


def _umkehr_crossings_d1(emb, m_cp, p_cp):
    """index(m) = codim = 1 with P a circle in a surface, so p is a minimum
    of P: the signed count of crossings of W^u(m) with the image of
    W^s(p; P), the arcs of P's maxima that end at p."""
    dom, cod = emb.domain, emb.codomain
    arcs = [b.mapped(emb.image) for q in dom.by_index(1)
            for b in branches(dom, q, +1) if b.limit.name == p_cp.name]
    total = 0
    for c in curve_intersections(cod.manifold, branches(cod, m_cp, +1),
                                 arcs):
        zeta = c.b.point(c.l, c.u)
        # W^s(p; k) is all of the image because p is a minimum: both frames
        # are followed by its tangent, so the sign compares their
        # components off it
        S = emb.push_frame(zeta, dom.manifold.tangent_basis(zeta))
        total += orientation_sign(
            np.hstack([c.a.tangent(c.k, c.theta), S]),
            np.hstack([_image_frame(emb, p_cp, zeta, c.point), S]),
            floor=1e-8)
    return total


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
    gens = {p + r: base.labels(p) for p in base.degrees()}
    maps = {p + r: base.map_from(p) for p in base.degrees()
            if base.map_from(p).size}
    rel = GradedComplex(gens, maps, ring=base.ring)
    return ThomData(bundle=bundle, base_system=system, base_complex=base,
                    relative=rel, rank=r)


@dataclass
class ThomClassData:
    thom: ThomData
    unit_cochain: dict          # relative degree-r dual: name -> coefficient
    fiber_pairing: int


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
    """(frame, owner name): W^u of the owner has rank r = dim, so the
    frame is the class-signed tangent basis at z."""
    owner = backward_limit(system, z)
    if owner.index != r:
        raise TransversalityError(
            "section zero sits on a lower stratum (owner %s of index %d); "
            "re-seed the section" % (owner.name, owner.index))
    return _class_frame(system.manifold, owner, z), owner.name


def _class_frame(man, cp, z):
    """The oriented tangent basis at z in cp's orientation class: the frame
    of a W^u or W^s of cp that spans the tangent space, up to a change of
    basis of positive determinant."""
    B = man.oriented_tangent_basis(z).copy()
    B[:, 0] *= orientation_class(man, cp)
    return B


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
        self.tol = tol or DEFAULT_TOLERANCES

    def f(self, x):
        return sum(s.f(x) for s in self.systems)

    def grad(self, x):
        g = self.systems[0].grad(x).copy()
        for s in self.systems[1:]:
            g = g + s.grad(x)
        return g

    def field(self, x):
        return -self.manifold.tangent_project(x, self.grad(x))

    def float_kernels(self, direction):
        return numpy_kernels(self, direction)


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
        # outgoing stable curves pulled back through the auxiliary flow,
        # filled by _find_configurations
        self.pullbacks = {}

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


def graph_flow_count(problem, inputs, output, edge_time=0.0):
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
    return sum(_configuration_sign(problem, a1, a2, a3, x, frames)
               for x, frames in _find_configurations(problem, a1, a2, a3,
                                                     edge_time))


def _aux_time_map(problem, x, edge_time, direction=+1):
    if edge_time == 0.0:
        return np.asarray(x, dtype=float)
    seg = fixed_time_flow(problem.aux, x, edge_time, direction=direction,
                          record=False)
    return seg.x_end


def _flows_into(system, x, cp, direction=+1):
    """Whether the loose flow from x in ``direction`` ends at cp.  A limit
    of another index than cp's puts x on a manifold of lower dimension
    than cp's, so x is not a configuration in general position, and
    "no" would be a wrong count: it raises ``TransversalityError``."""
    name = approach(system, x, cp, direction)[0]
    limit = system.point(name)
    if limit.index != cp.index:
        raise TransversalityError(
            "the %s flow of %s from %s ends at %s of index %d, not at an "
            "index-%d point like %s" % (
                "forward" if direction == +1 else "backward", system.name,
                np.round(x, 6).tolist(), name, limit.index, cp.index,
                cp.name))
    return name == cp.name


def _find_configurations(problem, a1, a2, a3, R):
    """Isolated points x on both incoming unstable manifolds whose R-flow
    lands on the outgoing stable manifold, as (x, frames).  With an
    index-1 input, configurations are crossings of two curves of branch
    flows, and ``frames`` maps the system of each one-dimensional manifold
    to its tangent at the crossing x: W^u of an index-1 input, and in case
    (2,1) W^s of the output pulled back through the time-R flow."""
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    i1, i2 = a1.index, a2.index
    man = problem.manifold
    if man.dim != 2:
        raise UnsupportedDiagramError(
            "configuration counting is implemented on surfaces")
    if (i1, i2) == (2, 2):
        x = _aux_time_map(problem, a3.point, R, direction=-1)
        if _flows_into(E1, x, a1, -1) and _flows_into(E2, x, a2, -1):
            return [(x, {})]
        return []
    if {i1, i2} == {2, 0}:
        x = a2.point if i2 == 0 else a1.point
        other_sys, other_cp = (E1, a1) if i2 == 0 else (E2, a2)
        if not _flows_into(other_sys, x, other_cp, -1):
            return []
        y = _aux_time_map(problem, x, R)
        return [(x, {})] if _flows_into(E3, y, a3) else []
    if (i1, i2) == (1, 1):
        # the two unstable curves do not depend on R; the outgoing
        # minimum is checked after the R-flow
        hits = curve_intersections(man, branches(E1, a1, +1),
                                   branches(E2, a2, +1))
        return [(c.point, {E1: c.a.tangent(c.k, c.theta),
                           E2: c.b.tangent(c.l, c.u)}) for c in hits
                if _flows_into(E3, _aux_time_map(problem, c.point, R), a3)]
    if {i1, i2} == {2, 1}:
        # W^s(a3) pulled back through the time-R flow node by node; the
        # flow keeps the order of the nodes, so its tangent at x is the
        # chord of the pulled-back segment
        curve_sys, curve_cp = (E2, a2) if i2 == 1 else (E1, a1)
        other_sys, other_cp = (E1, a1) if i2 == 1 else (E2, a2)
        stable, key = branches(E3, a3, -1), (a3.name, R)
        if R and key not in problem.pullbacks:
            problem.pullbacks[key] = [b.mapped(
                lambda y: _aux_time_map(problem, y, R, direction=-1))
                for b in stable]
        hits = curve_intersections(man, branches(curve_sys, curve_cp, +1),
                                   problem.pullbacks.get(key, stable))
        return [(c.point, {curve_sys: c.a.tangent(c.k, c.theta),
                           E3: c.b.tangent(c.l, c.u, man)})
                for c in hits if _flows_into(other_sys, c.point, other_cp, -1)]
    raise InternalInconsistencyError(
        "unreachable index pattern (%d, %d) after the dimension gate"
        % (i1, i2))


def _configuration_sign(problem, a1, a2, a3, x, frames):
    """Orientation sign of one configuration.

    Computed in the doubled tangent space: the two incoming unstable
    frames against the diagonal copy of the outgoing stable tangent, with
    the stable tangent oriented by the outgoing unstable frame and the
    manifold orientation, which gives the orientation class of a3.  A W^u
    or W^s of dimension 0 has the empty frame, one that spans the tangent
    space the class-signed basis at x, and a one-dimensional one its
    tangent at x in ``frames``.
    """
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    man = problem.manifold
    n = man.dim

    def frame(system, cp, d):
        if d == 0:
            return np.zeros((man.coord_dim, 0))
        return _class_frame(man, cp, x) if d == n else frames[system]

    U1, U2 = frame(E1, a1, a1.index), frame(E2, a2, a2.index)
    S3 = frame(E3, a3, n - a3.index)
    i1, i2 = a1.index, a2.index
    if i1 + i2 + S3.shape[1] != 2 * n:
        raise InternalInconsistencyError("configuration dimensions are off")
    B = man.oriented_tangent_basis(x)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :i1] = B.T @ U1
    M[n:, i1:i1 + i2] = B.T @ U2
    M[:n, i1 + i2:] = M[n:, i1 + i2:] = B.T @ S3
    det = float(np.linalg.det(M))
    if abs(det) < 1e-8:
        raise OrientationError("degenerate configuration determinant")
    return (1 if det > 0 else -1) * orientation_class(man, a3)


def diagram_flow_operation(problem, input_chain, edge_time=0.0):
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
                                   edge_time=edge_time)
            if cnt:
                out[cp3.name] = out.get(cp3.name, 0) + coeff * cnt
    return {name: val for name, val in out.items() if val != 0}


def operation_table(problem, edge_time=0.0):
    """Counts for every basis pair of the incoming systems.

    The products share the labels' branch flows; the table drops them when
    done, so that a problem kept afterwards holds none of them.
    """
    E1, E2 = problem.incoming
    table = {}
    with dropping(problem.pullbacks, *(system.branches for system in
                                       problem.incoming + problem.outgoing)):
        for c1 in E1.critical_points:
            for c2 in E2.critical_points:
                table[(c1.name, c2.name)] = diagram_flow_operation(
                    problem, [((c1.name, c2.name), 1)], edge_time=edge_time)
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

