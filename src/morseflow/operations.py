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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .complexes import GradedComplex, chain_map_defect, homology
from .counting import (
    backward_limit,
    boundary_operator,
    branches,
    continuation,
    curve_intersections,
    flow_limit,
    graded_matrices,
    hybrid_entry,
    keeping,
    orientation_class,
    _keep,
    _kept,
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
from .geometry.systems import numpy_kernels, torus_cosine


# -- embeddings ----------------------------------------------------------------

class EmbeddingModel:
    """A proper embedding e: P -> X between catalog Morse systems.

    Carries the map, r signed normal coordinates vanishing on the image,
    and an oriented normal frame (the coorientation).
    """

    def __init__(self, domain, codomain, embed, normal_coordinate,
                 normal_frame, codim, name="embedding"):
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
        if self.codim > 0:
            self._check()

    def image(self, p_point):
        """e(p), on the codomain manifold."""
        return self.codomain.manifold.project(self.embed(p_point))

    def differential(self, p_point):
        """Columns: the pushforward of the domain tangent basis at p, the
        central differences of ``embed`` tangent-projected at e(p)."""
        dman, xman = self.domain.manifold, self.codomain.manifold
        D = dman.central_differences(self.embed, p_point,
                                     dman.tangent_basis(p_point))
        x = xman.project(self.embed(p_point))
        return np.stack([xman.tangent_project(x, v) for v in D.T], axis=1)

    def push_frame(self, p_point, frame_in_P):
        """Push a domain tangent frame through the differential."""
        basis = self.domain.manifold.tangent_basis(p_point)
        return orthonormalize(self.differential(p_point)
                              @ (basis.T @ frame_in_P))

    def _check(self):
        dman = self.domain.manifold
        rng = np.random.default_rng(4)
        pts = [dman.random_point(rng) for _ in range(24)]
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
                          codim=0, name="identity")


def torus_factor_circle(codomain, fixed_axis, level, phase=0.0):
    """The circle {theta_axis = level} in a torus system, with its own
    one-angle cosine function.  An axis other than 0 or 1, or a level that
    is not finite, raises ``GeometryError``."""
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
    domain = torus_cosine(1, [1.0], [phase],
                          name="factor%d" % free_axis)

    def embed(t):
        out = np.zeros(n)
        out[fixed_axis] = level
        out[free_axis] = t[0]
        return out

    def normal_coordinate(x):
        return np.atleast_1d(codomain.manifold.displacement(level,
                                                            x[fixed_axis]))

    e_fix = np.zeros((n, 1))
    e_fix[fixed_axis, 0] = 1.0

    return EmbeddingModel(domain, codomain, embed,
                          normal_coordinate, lambda p: e_fix, codim=1,
                          name="factor-circle[axis=%d]" % fixed_axis)


def sphere_equator(codomain):
    """The equator of the embedded 2-sphere with a height-like function."""
    if codomain.manifold.coord_dim != 3:
        raise GeometryError("equator embedding expects the 2-sphere model")
    domain = torus_cosine(1, [1.0], [np.pi / 2], name="equator")

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
    with keeping():
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
    with keeping():
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
    for c in curve_intersections(cod.manifold, [branches(cod, m_cp, +1)],
                                 [arcs])[0, 0]:
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


def thom_complex(bundle, system):
    """Relative Morse complex of (disk bundle, sphere bundle), once the
    bundle passes its checks at 10 random points of the base."""
    base = boundary_operator(system)
    r = bundle.rank
    man = system.manifold
    rng = np.random.default_rng(0)
    samples = [man.random_point(rng) for _ in range(10)]
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


def thom_class(bundle, system, thom=None):
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
        thom = thom_complex(bundle, system)
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


def euler_class(bundle, system, section=None):
    """Euler class as a cochain on the index-r generators.

    Realized as the collapse of the relative unit class: a generic section
    is counted, with orientation signs, at its zeros inside each index-r
    unstable manifold, found by Newton's method from 200 seeded starts and
    signed by the central differences of the section in the fiber frame.
    A bundle carrying an explicit nowhere-zero section
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
    zeros = _find_section_zeros(system.manifold, section)
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


def _find_section_zeros(man, section):
    rng = np.random.default_rng(0)
    found = []
    for _ in range(200):
        x = man.random_point(rng)
        z = _newton_zero(man, section, x)
        if z is None:
            continue
        if any(man.distance(z, w) < 1e-5 for w in found):
            continue
        found.append(z)
    return found


def _newton_zero(man, section, x0):
    x = man.project(np.asarray(x0, dtype=float))
    for _ in range(60):
        s = np.asarray(section(x), dtype=float)
        if np.linalg.norm(s) < 1e-10:
            return x
        basis = man.tangent_basis(x)
        J = man.central_differences(section, x, basis)
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
    M = bundle.frame_at(z).T @ man.central_differences(section, z,
                                                       tangent_frame)
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

    def __init__(self, systems):
        self.manifold = systems[0].manifold
        self.systems = tuple(systems)

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
    specializes to intersection products.  Any other valid diagram raises
    ``UnsupportedDiagramError`` at construction.
    """

    def __init__(self, diagram, incoming_labels, outgoing_labels):
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
        if not (diagram.incoming_count() == 2
                and diagram.outgoing_count() == 1
                and diagram.graph.num_vertices == 1
                and diagram.graph.num_edges == 2):
            raise UnsupportedDiagramError(
                "unsupported diagram family: counting is implemented for "
                "the one-vertex two-loop diagram")
        self._check_label_separation()
        self.aux = AuxiliaryFunction(self.incoming)

    def _check_label_separation(self):
        systems = self.incoming + self.outgoing
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                a, b = systems[i], systems[j]
                if a is b:
                    raise TransversalityError(
                        "labels %d and %d are the same system; configuration "
                        "counting needs distinct (e.g. phase-shifted) labels"
                        % (i, j))
                # the first colliding pair in (a's point, b's point)
                # order, from one distance matrix
                gaps = np.linalg.norm(self.manifold.displacement(
                    a.points[:, None, :], b.points[None, :, :]), axis=2)
                close = np.argwhere(gaps < 1e-3)
                if len(close):
                    ca, cb = close[0]
                    raise TransversalityError(
                        "critical points %s/%s of labels %d/%d collide; "
                        "shift the phases" % (a.catalog["name"][ca],
                                              b.catalog["name"][cb], i, j))

    def chi_times_dim(self):
        return self.diagram.graph.euler_characteristic() * self.manifold.dim


# one label's catalog, read once per call (``_catalog``): its points by
# name, its points by index, and each index-1 point's position among them
Catalog = namedtuple("Catalog", "point by_index position")


def _catalog(system):
    """The ``Catalog`` of a label, read once per call and kept in its
    store (``_keep``): a figure-8 table looks its labels' points up by
    name, by index and by position for every count it makes."""
    def read():
        points, by_index = system.critical_points, {}
        for cp in points:
            by_index.setdefault(cp.index, []).append(cp)
        return Catalog({cp.name: cp for cp in points},
                       {k: tuple(cps) for k, cps in by_index.items()},
                       {cp.name: i for i, cp in enumerate(by_index.get(1, ()))})

    return _keep((system, "catalog"), read)


def _point(system, name):
    """``system.point(name)`` off the call's ``Catalog``; a name that is
    not there raises as ``point`` does."""
    cp = _catalog(system).point.get(name)
    return system.point(name) if cp is None else cp


def _class(system, cp):
    """``orientation_class`` of cp of the label ``system``, read once per
    call and kept in its store."""
    return _keep((system, "class", cp.name),
                 lambda: orientation_class(system.manifold, cp))


def expected_dimension(problem, input_names, output_names):
    """Index sum of inputs minus outputs plus chi(graph) * dim(M)."""
    total = 0
    for name, sys_in in zip(input_names, problem.incoming):
        total += _point(sys_in, name).index
    for name, sys_out in zip(output_names, problem.outgoing):
        total -= _point(sys_out, name).index
    return total + _degree_shift(problem)


def _degree_shift(problem):
    """chi(graph) * dim(M), read once per call."""
    return _keep((problem, "chi"), problem.chi_times_dim)


def graph_flow_count(problem, inputs, output, edge_time=0.0):
    """Signed count of configurations for one input/output tuple.

    A configuration is a point of the manifold lying on both incoming
    unstable manifolds whose auxiliary flow for ``edge_time`` lands on the
    outgoing stable manifold; at zero edge time this is the transverse
    triple intersection.
    """
    if expected_dimension(problem, inputs, [output]) != 0:
        raise ValueError("counting requires expected dimension zero")
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    a1, a2, a3 = (_point(E1, inputs[0]), _point(E2, inputs[1]),
                  _point(E3, output))
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
    """Whether the flow from x in ``direction`` ends at cp, read for its
    limit alone by ``counting.flow_limit``, under the level trap.  A limit
    of another index than cp's puts x on a manifold of lower dimension
    than cp's, so x is not a configuration in general position, and "no"
    would be a wrong count: it raises ``TransversalityError``."""
    limit = flow_limit(system, x, direction, what="classification flow")
    name = limit.name
    if limit.index != cp.index:
        raise TransversalityError(
            "the %s flow of %s from %s ends at %s of index %d, not at an "
            "index-%d point like %s" % (
                "forward" if direction == +1 else "backward", system.name,
                np.round(x, 6).tolist(), name, limit.index, cp.index,
                cp.name))
    return name == cp.name


def _curve(problem, system, cp, R):
    """The curve of cp that the configurations of R cross: W^u(cp) of an
    incoming label, or W^s(cp) of the outgoing one pulled back through the
    time-R auxiliary flow node by node, kept in the call's store."""
    if system is not problem.outgoing[0]:
        return branches(system, cp, +1)
    stable = branches(system, cp, -1)
    return stable if not R else _keep((problem, cp.name, R), lambda: [
        b.mapped(lambda y: _aux_time_map(problem, y, R, direction=-1))
        for b in stable])


def _crossings(problem, R, a, b):
    """The crossings of the curves (``_curve``) of a = (system, cp) and
    b.  Inside a table, whose store holds a dict of family crossings
    (``operation_table``), the first read of a family pair crosses the
    curves of every index-1 point of a's system with those of b's, W^u
    of in1 with W^u of in2 or either with W^s of out, once, and every
    read takes its pair off them; elsewhere a and b are crossed as
    one-curve families."""
    families = _kept((problem, "families", R))
    if families is None:
        return curve_intersections(problem.manifold, [_curve(problem, *a, R)],
                                   [_curve(problem, *b, R)])[0, 0]
    systems = (a[0], b[0])
    if systems not in families:
        families[systems] = curve_intersections(problem.manifold, *(
            [_curve(problem, system, cp, R)
             for cp in _catalog(system).by_index.get(1, ())]
            for system in systems))
    return families[systems][tuple(_catalog(system).position[cp.name]
                                   for system, cp in (a, b))]


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
        return [(c.point, {E1: c.a.tangent(c.k, c.theta),
                           E2: c.b.tangent(c.l, c.u)})
                for c in _crossings(problem, R, (E1, a1), (E2, a2))
                if _flows_into(E3, _aux_time_map(problem, c.point, R), a3)]
    if {i1, i2} == {2, 1}:
        # W^s(a3) pulled back through the time-R flow (``_curve``); the
        # flow keeps the order of the nodes, so its tangent at x is the
        # chord of the pulled-back segment
        curve_sys, curve_cp = (E2, a2) if i2 == 1 else (E1, a1)
        other_sys, other_cp = (E1, a1) if i2 == 1 else (E2, a2)
        return [(c.point, {curve_sys: c.a.tangent(c.k, c.theta),
                           E3: c.b.tangent(c.l, c.u, man)})
                for c in _crossings(problem, R, (curve_sys, curve_cp),
                                    (E3, a3))
                if _flows_into(other_sys, c.point, other_cp, -1)]
    raise InternalInconsistencyError(
        "unreachable index pattern (%d, %d) after the dimension gate"
        % (i1, i2))


def _configuration_sign(problem, a1, a2, a3, x, frames):
    """Orientation sign of one configuration, in closed form.

    In the doubled tangent space T_x + T_x, the two incoming unstable
    frames U1 (first copy) and U2 (second copy) stand against the diagonal
    copy of the outgoing stable frame S, each in the basis B at x: the
    sign is that of det [[U1, 0, S], [0, U2, S]] (``tests/oracles.py``),
    times the orientation class of a3, which orients S through the
    outgoing unstable frame and the manifold.  A W^u or W^s of dimension
    0 has the empty frame, one that spans the tangent space the
    class-signed basis at x, whose determinant is its point's class, and a
    one-dimensional one its tangent at x in ``frames``.  On a surface the
    determinant is a product of 2 x 2 determinants, each read once:

    - (1, 1): -det S det [u1 u2], with det S the class of a3;
    - (2, 1): det U1 det [u2 s];
    - (1, 2): det [u1 s] det U2;
    - (2, 2), (2, 0) and (0, 2): the product of the classes of the frames
      that span.

    A product below 1e-8 in magnitude raises ``OrientationError``.  The
    classes are read once per call (``_class``).
    """
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    man = problem.manifold
    n = man.dim
    dims = (a1.index, a2.index, n - a3.index)
    if n != 2 or sum(dims) != 2 * n:
        raise InternalInconsistencyError("configuration dimensions are off")

    def pair(u, v):
        (p, q), (r, s) = (man.oriented_tangent_basis(x).T
                          @ np.hstack([u, v])).tolist()
        return p * s - q * r

    if dims == (1, 1, 2):
        det = -_class(E3, a3) * pair(frames[E1], frames[E2])
    elif dims == (2, 1, 1):
        det = _class(E1, a1) * pair(frames[E2], frames[E3])
    elif dims == (1, 2, 1):
        det = pair(frames[E1], frames[E3]) * _class(E2, a2)
    else:
        det = 1
        for system, cp, d in zip((E1, E2, E3), (a1, a2, a3), dims):
            if d == n:
                det *= _class(system, cp)
    if abs(det) < 1e-8:
        raise OrientationError("degenerate configuration determinant")
    return (1 if det > 0 else -1) * _class(E3, a3)


def diagram_flow_operation(problem, input_chain, edge_time=0.0):
    """Apply the diagram operation to a chain in the incoming tensor basis.

    ``input_chain``: iterable of ((name_in_1, name_in_2), coefficient).
    Returns the output chain as {output name: coefficient}; an input pair
    counts only the output generators of its degree i1 + i2 + chi(graph)
    * dim, those of expected dimension zero, so the degree shift is
    exactly chi(graph) * dim.
    """
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    out = {}
    with keeping():
        for (n1, n2), coeff in input_chain:
            if coeff == 0:
                continue
            degree = (_point(E1, n1).index + _point(E2, n2).index
                      + _degree_shift(problem))
            for cp3 in _catalog(E3).by_index.get(degree, ()):
                cnt = graph_flow_count(problem, (n1, n2), cp3.name,
                                       edge_time=edge_time)
                if cnt:
                    out[cp3.name] = out.get(cp3.name, 0) + coeff * cnt
    return {name: val for name, val in out.items() if val != 0}


def operation_table(problem, edge_time=0.0):
    """Counts for every basis pair of the incoming systems.

    The products share the labels' branch flows and pulled-back curves,
    and read their crossings off the three family pairs, each crossed
    once (``_crossings``), all kept for the table's call alone
    (``keeping``).
    """
    E1, E2 = problem.incoming
    table = {}
    with keeping():
        _keep((problem, "families", edge_time), dict)
        for n1 in _catalog(E1).point:
            for n2 in _catalog(E2).point:
                table[(n1, n2)] = diagram_flow_operation(
                    problem, [((n1, n2), 1)], edge_time=edge_time)
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

