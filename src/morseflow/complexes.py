"""Integer chain complexes, Smith normal form, and homology.

Matrices are numpy object arrays holding Python ints, so all arithmetic is
exact.  Complexes are small (generators = critical points), which keeps the
cubic-time normal form comfortably cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """U @ A @ V == D with U, V unimodular; U_inv the inverse of U."""

    D: np.ndarray
    U: np.ndarray
    V: np.ndarray
    U_inv: np.ndarray

    @property
    def diagonal(self):
        k = min(self.D.shape)
        return [int(self.D[i, i]) for i in range(k)]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(A):
    """Exact Smith normal form over the integers with transform tracking."""
    A = _as_int_matrix(A)
    m, n = A.shape
    U, U_inv = _eye(m), _eye(m)
    V = _eye(n)

    def row_swap(i, j):
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]
        U_inv[:, [i, j]] = U_inv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]

    def row_add(src, dst, q):  # row_dst += q * row_src
        A[dst, :] += q * A[src, :]
        U[dst, :] += q * U[src, :]
        U_inv[:, src] -= q * U_inv[:, dst]

    def col_add(src, dst, q):
        A[:, dst] += q * A[:, src]
        V[:, dst] += q * V[:, src]

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
    return SmithForm(D=A, U=U, V=V, U_inv=U_inv)


def kernel_basis(A):
    """Saturated integer basis of ker(A) as columns of an n x k matrix."""
    A = _as_int_matrix(A)
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=object)
    snf = smith_normal_form(A.copy())
    cols = [j for j in range(n)
            if j >= min(m, n) or snf.D[j, j] == 0]
    return snf.V[:, cols]


def solve_integer(K, B):
    """Solve K X = B over Z for K with full column rank; errors if unsolvable."""
    K = _as_int_matrix(K)
    B = _as_int_matrix(B)
    snf = smith_normal_form(K.copy())
    r = snf.rank
    if r != K.shape[1]:
        raise InternalInconsistencyError("kernel basis is rank deficient")
    UB = snf.U @ B
    X = np.zeros((K.shape[1], B.shape[1]), dtype=object)
    for i in range(K.shape[0]):
        for j in range(B.shape[1]):
            if i < r:
                d = snf.D[i, i]
                if UB[i, j] % d:
                    raise InternalInconsistencyError(
                        "integer solve failed: non-divisible entry")
                X[i, j] = UB[i, j] // d
            elif UB[i, j]:
                raise InternalInconsistencyError(
                    "integer solve failed: inconsistent system")
    return snf.V @ X


# -- GF(2) utilities ----------------------------------------------------------

def _mod2(a):
    out = _as_int_matrix(a)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = int(out[i, j]) % 2
    return out


def rank_mod2(A):
    A = _mod2(A)
    m, n = A.shape
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if A[i, col]:
                piv = i
                break
        if piv is None:
            continue
        A[[row, piv], :] = A[[piv, row], :]
        for i in range(m):
            if i != row and A[i, col]:
                A[i, :] = (A[i, :] + A[row, :]) % 2
        rank += 1
        row += 1
        if row == m:
            break
    return rank


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
            mat = _as_int_matrix(mat, rows=self.dim(p + self.shift),
                                 cols=self.dim(p))
            if self.ring == RING_Z2:
                mat = _mod2(mat)
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
            if self.ring == RING_Z2:
                bad = any(int(x) % 2 for x in m2.flat)
            else:
                bad = any(int(x) for x in m2.flat)
            if m2.size and bad:
                raise InternalInconsistencyError(
                    "composite of maps out of degree %d is nonzero" % p)

    def to_mod2(self):
        return GradedComplex(self.generators,
                             {p: _mod2(m) for p, m in self.maps.items()},
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
    kernel: np.ndarray               # dim(p) x k
    _coord_U: np.ndarray             # SNF transform for class coordinates
    _diag: tuple


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
        vec = _as_int_matrix(np.array(vector, dtype=object).reshape(-1, 1))
        if d.kernel.shape[1] == 0:
            if any(int(x) for x in vec.flat):
                raise InternalInconsistencyError("vector is not a cycle")
            return np.zeros((0,), dtype=object)
        y = solve_integer(d.kernel, vec)
        coords = d._coord_U @ y
        free = [i for i, dv in enumerate(d._diag) if dv == 0]
        free += list(range(len(d._diag), d.kernel.shape[1]))
        return np.array([int(coords[i, 0]) for i in free], dtype=object)

    def __repr__(self):
        return "HomologyResult(betti=%r)" % (
            {p: self.betti(p) for p in sorted(self.data)},)


def homology(c):
    """Homology (or cohomology, for shift=+1) with torsion and witnesses."""
    if c.ring == RING_Z2:
        return _homology_mod2(c)
    out = []
    for p in c.degrees():
        d_out = c.map_from(p)
        d_in = c.map_from(p - c.shift)  # the map landing in degree p
        K = kernel_basis(d_out)
        k = K.shape[1]
        if k == 0:
            out.append(DegreeHomology(p, 0, (), K, K, _eye(0), ()))
            continue
        X = solve_integer(K, d_in) if d_in.size else np.zeros((k, 0),
                                                              dtype=object)
        snf = smith_normal_form(X.copy())
        diag = tuple(snf.diagonal)
        torsion = tuple(int(d) for d in diag if d not in (0, 1))
        free_idx = [i for i, dv in enumerate(diag) if dv == 0]
        free_idx += list(range(len(diag), k))
        reps = (K @ snf.U_inv)[:, free_idx]
        out.append(DegreeHomology(p, len(free_idx), torsion, reps, K,
                                  snf.U, diag))
    result = HomologyResult(c, out)
    _check_rank_nullity(c, result)
    return result


def _homology_mod2(c):
    out = []
    for p in c.degrees():
        d_out = c.map_from(p)
        d_in = c.map_from(p - c.shift)
        k = c.dim(p) - rank_mod2(d_out)
        b = k - (rank_mod2(d_in) if d_in.size else 0)
        reps = np.zeros((c.dim(p), 0), dtype=object)
        out.append(DegreeHomology(p, b, (), reps, reps, _eye(0), ()))
    return HomologyResult(c, out)


def _check_rank_nullity(c, result):
    for p in c.degrees():
        snf_out = smith_normal_form(c.map_from(p).copy())
        snf_in = smith_normal_form(c.map_from(p - c.shift).copy())
        expect = c.dim(p) - snf_out.rank - snf_in.rank
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

    def connecting_map(self, p):
        """Snake-lemma map H_p(quotient) -> H_{p-1}(sub) on free parts."""
        sub_homology = homology(self.sub)
        reps = homology(self.quotient).representatives(p)
        cols = []
        for jcol in range(reps.shape[1]):
            lift = np.zeros((self.total.dim(p), 1), dtype=object)
            for i, j in enumerate(self.quotient_indices.get(p, ())):
                lift[j, 0] = reps[i, jcol]
            dz = self.total.map_from(p) @ lift
            # boundary of the lift must live in the subcomplex
            sub_pos = set(self.sub_indices.get(p - 1, ()))
            vec = []
            for j in self.sub_indices.get(p - 1, ()):
                vec.append(int(dz[j, 0]))
            for j in range(self.total.dim(p - 1)):
                if j not in sub_pos and int(dz[j, 0]) != 0:
                    raise InternalInconsistencyError(
                        "lifted boundary escapes the subcomplex")
            cols.append(sub_homology.class_coordinates(p - 1, vec))
        if not cols:
            return np.zeros((sub_homology.betti(p - 1), 0), dtype=object)
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
