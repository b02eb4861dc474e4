"""Integer chain complexes, Smith normal form, and homology.

Matrices are numpy object arrays holding Python ints, so all arithmetic is
exact.  Complexes are small (generators = critical points), which keeps the
cubic-time normal form comfortably cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError, InternalInconsistencyError

RING_Z = "Z"
RING_Z2 = "Z2"


def _as_int_matrix(a, rows=None, cols=None):
    if a is None:
        a = np.zeros((rows or 0, cols or 0), dtype=object)
    m = np.array(a, dtype=object)
    if m.ndim != 2:
        m = m.reshape((m.shape[0] if m.size else 0, -1))
    out = np.empty(m.shape, dtype=object)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[i, j] = int(m[i, j])
    return out


def _eye(n):
    m = np.zeros((n, n), dtype=object)
    for i in range(n):
        m[i, i] = 1
    return m


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular; U_inv and V_inv their inverses.

    The nonzero diagonal entries come first, so the last n - rank columns
    of V are a saturated basis K of ker(A), and the last n - rank rows of
    V_inv a left inverse L of it (L @ K == 1): L @ x are the coordinates
    in K of each x in ker(A).
    """

    D: np.ndarray
    U: np.ndarray
    V: np.ndarray
    U_inv: np.ndarray
    V_inv: np.ndarray

    @property
    def diagonal(self):
        k = min(self.D.shape)
        return [int(self.D[i, i]) for i in range(k)]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(A, ring=RING_Z):
    """Exact Smith normal form with transform tracking, over the integers
    or, for ``ring`` Z/2, over the field of two elements: there the entries
    are kept mod 2, each row or column addition reduces what it touches,
    and every pivot is 1."""
    A = _reduce(_as_int_matrix(A), ring)
    m, n = A.shape
    U, U_inv = _eye(m), _eye(m)
    V, V_inv = _eye(n), _eye(n)

    def row_swap(i, j):
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]
        U_inv[:, [i, j]] = U_inv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]
        V_inv[[i, j], :] = V_inv[[j, i], :]

    def row_add(src, dst, q):  # row_dst += q * row_src
        A[dst, :] = _reduce(A[dst, :] + q * A[src, :], ring)
        U[dst, :] = _reduce(U[dst, :] + q * U[src, :], ring)
        U_inv[:, src] = _reduce(U_inv[:, src] - q * U_inv[:, dst], ring)

    def col_add(src, dst, q):
        A[:, dst] = _reduce(A[:, dst] + q * A[:, src], ring)
        V[:, dst] = _reduce(V[:, dst] + q * V[:, src], ring)
        V_inv[src, :] = _reduce(V_inv[src, :] - q * V_inv[dst, :], ring)

    def row_negate(i):
        A[i, :] *= -1
        U[i, :] *= -1
        U_inv[:, i] *= -1

    t = 0
    while t < min(m, n):
        # locate a minimal nonzero pivot in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i, j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t
            again = False
            for i in range(t + 1, m):
                if A[i, t]:
                    q = -(A[i, t] // A[t, t])
                    row_add(t, i, q)
                    if A[i, t]:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        again = True
            for j in range(t + 1, n):
                if A[t, j]:
                    q = -(A[t, j] // A[t, t])
                    col_add(t, j, q)
                    if A[t, j]:
                        col_swap(t, j)
                        again = True
            if not again:
                break
        # enforce divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i, j] % A[t, t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(bad, t, 1)
            continue
        if A[t, t] < 0:
            row_negate(t)
        t += 1
    return SmithForm(D=A, U=U, V=V, U_inv=U_inv, V_inv=V_inv)


def kernel_basis(A):
    """Saturated integer basis of ker(A) as columns of an n x k matrix."""
    snf = smith_normal_form(A)
    return snf.V[:, snf.rank:]


def _reduce(m, ring):
    """An array of Python ints as it is over the integers, and its entries
    mod 2 over Z/2."""
    return m % 2 if ring == RING_Z2 else m


# -- graded complexes ---------------------------------------------------------

class GradedComplex:
    """Finitely generated complex with integer (or mod-2) matrices.

    ``shift`` is -1 for chain complexes (map lowers degree) and +1 for
    cochain complexes.  ``maps[p]`` sends degree p to degree p + shift and
    has shape (dim(p + shift), dim(p)).
    """

    def __init__(self, generators, maps, ring=RING_Z, shift=-1, check=True):
        self.generators = {int(p): tuple(g) for p, g in generators.items()
                           if len(g) > 0}
        self.ring = ring
        if ring not in (RING_Z, RING_Z2):
            raise InternalInconsistencyError("unknown ring %r" % ring)
        self.shift = int(shift)
        if self.shift not in (-1, 1):
            raise InternalInconsistencyError("shift must be +-1")
        self.maps = {}
        for p, mat in maps.items():
            p = int(p)
            mat = _reduce(_as_int_matrix(mat, rows=self.dim(p + self.shift),
                                         cols=self.dim(p)), ring)
            expected = (self.dim(p + self.shift), self.dim(p))
            if mat.shape != expected:
                raise InternalInconsistencyError(
                    "map at degree %d has shape %s, expected %s"
                    % (p, mat.shape, expected))
            if mat.size:
                self.maps[p] = mat
        if check:
            self.check_square_zero()

    # -- structure ----------------------------------------------------------

    def degrees(self):
        return sorted(self.generators)

    def dim(self, p):
        return len(self.generators.get(p, ()))

    def labels(self, p):
        return self.generators.get(p, ())

    def map_from(self, p):
        if p in self.maps:
            return self.maps[p]
        return np.zeros((self.dim(p + self.shift), self.dim(p)), dtype=object)

    def differential(self, p):
        """Chain convention: the matrix out of degree p."""
        return self.map_from(p)

    def check_square_zero(self):
        for p in list(self.maps):
            m2 = self.map_from(p + self.shift) @ self.map_from(p)
            if any(int(x) for x in _reduce(m2, self.ring).flat):
                raise InternalInconsistencyError(
                    "composite of maps out of degree %d is nonzero" % p)

    def to_mod2(self):
        return GradedComplex(self.generators,
                             {p: m % 2 for p, m in self.maps.items()},
                             ring=RING_Z2, shift=self.shift, check=False)

    def dual(self):
        """Hom(-, Z): transposed maps, degree direction flipped."""
        maps = {}
        for p, mat in self.maps.items():
            # map out of degree p + shift in the dual runs back to degree p
            maps[p + self.shift] = mat.T
        return GradedComplex(self.generators, maps, ring=self.ring,
                             shift=-self.shift, check=False)

    def __repr__(self):
        dims = {p: self.dim(p) for p in self.degrees()}
        return "GradedComplex(%s, ring=%s, shift=%+d)" % (
            dims, self.ring, self.shift)


def cochain_complex(c):
    """Dual complex with transposed differentials and raised degree."""
    return c.dual()


@dataclass
class DegreeHomology:
    degree: int
    betti: int
    torsion: tuple
    representatives: np.ndarray      # dim(p) x betti cycle matrix
    boundary: np.ndarray             # the map out of degree p
    coordinates: np.ndarray          # betti x dim(p): free part of a cycle


class HomologyResult:
    """Betti numbers, torsion, and chosen representative cycles per degree."""

    def __init__(self, complex_, data):
        self.complex = complex_
        self.data = {d.degree: d for d in data}

    def betti(self, p):
        return self.data[p].betti if p in self.data else 0

    def torsion(self, p):
        return self.data[p].torsion if p in self.data else ()

    def betti_vector(self, degrees=None):
        if degrees is None:
            degrees = self.complex.degrees()
        return tuple(self.betti(p) for p in degrees)

    def representatives(self, p):
        if p not in self.data:
            return np.zeros((self.complex.dim(p), 0), dtype=object)
        return self.data[p].representatives

    def class_coordinates(self, p, vector):
        """Free-part coordinates of a cycle's homology class."""
        if p not in self.data:
            return np.zeros((0,), dtype=object)
        d = self.data[p]
        ring = self.complex.ring
        vec = _as_int_matrix(np.array(vector, dtype=object).reshape(-1, 1))
        if any(int(x) for x in _reduce(d.boundary @ vec, ring).flat):
            raise InternalInconsistencyError("vector is not a cycle")
        return np.array([int(x) for x in
                         _reduce(d.coordinates @ vec, ring).flat],
                        dtype=object)

    def __repr__(self):
        return "HomologyResult(betti=%r)" % (
            {p: self.betti(p) for p in sorted(self.data)},)


def homology(c):
    """Homology (or cohomology, for shift=+1) over the complex's ring, with
    torsion and witnesses.

    One Smith form of each degree's outgoing map d_out gives its kernel K
    and a left inverse L of K (``SmithForm``).  The incoming map lands in
    ker(d_out), so its image has the coordinates X = L @ d_in in K, and the
    Smith form X = U^-1 D V^-1 gives the torsion (D's entries above 1) and
    the free part (its zero columns and those past D): representatives K
    @ U^-1 and a cycle's class coordinates U @ L, on those rows.  Over Z/2
    the same elimination runs mod 2, so every pivot is 1 and there is no
    torsion, and the representatives and coordinates are reduced mod 2.
    """
    ring = c.ring
    out = []
    for p in c.degrees():
        d_out = c.map_from(p)
        snf_out = smith_normal_form(d_out, ring)
        r = snf_out.rank
        K, L = snf_out.V[:, r:], snf_out.V_inv[r:, :]
        snf = smith_normal_form(L @ c.map_from(p - c.shift), ring)
        diag = tuple(snf.diagonal)
        torsion = tuple(int(d) for d in diag if d not in (0, 1))
        free_idx = [i for i, dv in enumerate(diag) if dv == 0]
        free_idx += list(range(len(diag), K.shape[1]))
        out.append(DegreeHomology(
            p, len(free_idx), torsion,
            _reduce((K @ snf.U_inv)[:, free_idx], ring), d_out,
            _reduce((snf.U @ L)[free_idx, :], ring)))
    result = HomologyResult(c, out)
    _check_rank_nullity(c, result)
    return result


def _check_rank_nullity(c, result):
    """The Betti numbers against the ranks of the maps themselves, each
    map's rank taken once."""
    degrees = c.degrees()
    rank = {q: smith_normal_form(c.map_from(q), c.ring).rank
            for q in set(degrees) | {p - c.shift for p in degrees}}
    for p in degrees:
        expect = c.dim(p) - rank[p] - rank[p - c.shift]
        got = result.betti(p)
        if expect != got:
            raise InternalInconsistencyError(
                "rank-nullity mismatch in degree %d: %d vs %d"
                % (p, expect, got))


# -- subcomplex / quotient / long exact sequence ------------------------------

@dataclass
class RelativePair:
    """Short exact sequence 0 -> sub -> total -> quotient -> 0 of complexes."""

    total: GradedComplex
    sub: GradedComplex
    quotient: GradedComplex
    sub_indices: dict       # degree -> tuple of generator positions in total
    quotient_indices: dict

    @cached_property
    def sub_homology(self):
        return homology(self.sub)

    @cached_property
    def quotient_homology(self):
        return homology(self.quotient)

    def connecting_map(self, p):
        """Snake-lemma map H_p(quotient) -> H_{p-1}(sub) on free parts."""
        reps = self.quotient_homology.representatives(p)
        sub = list(self.sub_indices.get(p - 1, ()))
        cols = []
        for jcol in range(reps.shape[1]):
            lift = np.zeros((self.total.dim(p), 1), dtype=object)
            lift[list(self.quotient_indices.get(p, ())), 0] = reps[:, jcol]
            dz = _reduce(self.total.map_from(p) @ lift, self.total.ring)
            # boundary of the lift must live in the subcomplex
            if any(int(dz[j, 0]) for j in range(self.total.dim(p - 1))
                   if j not in sub):
                raise InternalInconsistencyError(
                    "lifted boundary escapes the subcomplex")
            cols.append(self.sub_homology.class_coordinates(
                p - 1, [int(dz[j, 0]) for j in sub]))
        if not cols:
            return np.zeros((self.sub_homology.betti(p - 1), 0),
                            dtype=object)
        return np.stack(cols, axis=1)


def split_complex(c, member):
    """Split a chain complex along a generator predicate.

    ``member(degree, label)`` marks subcomplex generators.  Verifies that
    the differential maps sub generators into sub generators and returns a
    RelativePair.
    """
    if c.shift != -1:
        raise InternalInconsistencyError("split_complex expects a chain complex")
    sub_idx, quo_idx = {}, {}
    for p in c.degrees():
        labels = c.labels(p)
        sub_idx[p] = tuple(i for i, g in enumerate(labels) if member(p, g))
        quo_idx[p] = tuple(i for i, g in enumerate(labels) if not member(p, g))
    for p in c.degrees():
        mat = c.map_from(p)
        below = set(sub_idx.get(p - 1, ()))
        for j in sub_idx[p]:
            for i in range(c.dim(p - 1)):
                if i not in below and int(mat[i, j]) != 0:
                    raise AdmissibilityError(
                        "differential leaves the subcomplex at degree %d "
                        "generator %r" % (p, c.labels(p)[j]))
    def restrict(rows, cols, p):
        mat = c.map_from(p)
        out = np.zeros((len(rows), len(cols)), dtype=object)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                out[a, b] = mat[i, j]
        return out

    sub_gens = {p: tuple(c.labels(p)[i] for i in sub_idx[p])
                for p in c.degrees() if sub_idx[p]}
    quo_gens = {p: tuple(c.labels(p)[i] for i in quo_idx[p])
                for p in c.degrees() if quo_idx[p]}
    sub_maps = {p: restrict(sub_idx.get(p - 1, ()), sub_idx[p], p)
                for p in c.degrees() if sub_idx.get(p)}
    quo_maps = {p: restrict(quo_idx.get(p - 1, ()), quo_idx[p], p)
                for p in c.degrees() if quo_idx.get(p)}
    sub = GradedComplex(sub_gens, sub_maps, ring=c.ring)
    quo = GradedComplex(quo_gens, quo_maps, ring=c.ring)
    return RelativePair(total=c, sub=sub, quotient=quo,
                        sub_indices=sub_idx, quotient_indices=quo_idx)


def chain_map_defect(source, target, matrices, offset):
    """Max |entry| of (d_target Phi - Phi d_source); 0 means chain map."""
    worst = 0
    for p in source.degrees():
        phi_p = _as_int_matrix(matrices.get(p),
                               rows=target.dim(p + offset),
                               cols=source.dim(p))
        phi_prev = _as_int_matrix(matrices.get(p - 1),
                                  rows=target.dim(p - 1 + offset),
                                  cols=source.dim(p - 1))
        lhs = target.map_from(p + offset) @ phi_p
        rhs = phi_prev @ source.map_from(p)
        if lhs.shape != rhs.shape:
            raise InternalInconsistencyError(
                "chain map shape mismatch at degree %d" % p)
        if lhs.size:
            worst = max(worst, max(abs(int(x)) for x in (lhs - rhs).flat))
    return worst
