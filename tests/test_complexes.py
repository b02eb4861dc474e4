from fractions import Fraction

import numpy as np
import pytest

from morseflow.complexes import (
    GradedComplex,
    RING_Z2,
    chain_map_defect,
    cochain_complex,
    homology,
    kernel_basis,
    rank_mod2,
    smith_normal_form,
    solve_integer,
    split_complex,
)
from morseflow.errors import AdmissibilityError

from oracles import (
    s2xs2_complex,
    sphere2_complex,
    tensor_complex,
    torus3_complex,
    torus_delta_complex,
)


def exact_det(M):
    """The determinant of a square integer matrix, by Gaussian elimination
    in exact fractions."""
    rows = [[Fraction(int(v)) for v in row] for row in M]
    det = Fraction(1)
    for j in range(len(rows)):
        pivot = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            det = -det
        det *= rows[j][j]
        for i in range(j + 1, len(rows)):
            q = rows[i][j] / rows[j][j]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    return det


def check_snf(A):
    snf = smith_normal_form(np.array(A, dtype=object))
    A = np.array(A, dtype=object)
    assert np.array_equal(snf.U @ A @ snf.V, snf.D)
    assert np.array_equal(snf.U @ snf.U_inv, np.eye(A.shape[0], dtype=object))
    assert abs(exact_det(snf.V)) == 1
    diag = snf.diagonal
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    assert all(d >= 0 for d in diag)
    # off-diagonal must vanish
    for i in range(snf.D.shape[0]):
        for j in range(snf.D.shape[1]):
            if i != j:
                assert snf.D[i, j] == 0
    return diag


class TestSmithNormalForm:
    def test_known_small(self):
        assert check_snf([[2, 4], [6, 8]]) == [2, 4]
        assert check_snf([[1, 0], [0, 1]]) == [1, 1]
        assert check_snf([[0, 0], [0, 0]]) == [0, 0]

    def test_known_3x3(self):
        # determinantal divisors: gcd of entries 2, gcd of 2x2 minors 4,
        # |det| = 624, so the invariant factors are 2, 4/2, 624/4
        assert check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]

    def test_rectangular(self):
        assert check_snf([[1, 1, -1]]) == [1]
        assert check_snf([[1], [1], [-1]]) == [1]

    def test_random_matrices_against_minor_gcds(self):
        from itertools import combinations
        from math import gcd

        def determinantal_divisors(A, k_max):
            A = np.array(A, dtype=object)
            m, n = A.shape
            out = []
            for k in range(1, k_max + 1):
                g = 0
                for rows in combinations(range(m), k):
                    for cols in combinations(range(n), k):
                        sub = A[np.ix_(rows, cols)].astype(float)
                        # exact small determinant via integer expansion
                        g = gcd(g, abs(_int_det(A[np.ix_(rows, cols)])))
                out.append(g)
            return out

        def _int_det(M):
            k = M.shape[0]
            if k == 1:
                return int(M[0, 0])
            total = 0
            for j in range(k):
                minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
                total += (-1) ** j * int(M[0, j]) * _int_det(minor)
            return total

        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            A = rng.integers(-9, 10, size=(m, n))
            diag = check_snf(A)
            divisors = determinantal_divisors(A, min(m, n))
            prod = 1
            for i, d in enumerate(diag):
                prod *= d
                assert prod == divisors[i]

    def test_kernel_basis(self):
        A = np.array([[1, 1, -1], [0, 0, 0]], dtype=object)
        K = kernel_basis(A)
        assert K.shape == (3, 2)
        assert np.array_equal(A @ K, np.zeros((2, 2), dtype=object))

    def test_solve_integer(self):
        K = np.array([[2, 1], [0, 3], [1, 0]], dtype=object)
        X = np.array([[1, -2], [3, 0]], dtype=object)
        B = K @ X
        assert np.array_equal(solve_integer(K, B), X)


class TestOracleComplexes:
    def test_sphere(self):
        h = homology(sphere2_complex())
        assert h.betti_vector([0, 1, 2]) == (1, 0, 1)
        assert all(h.torsion(p) == () for p in (0, 1, 2))

    def test_torus(self):
        h = homology(torus_delta_complex())
        assert h.betti_vector([0, 1, 2]) == (1, 2, 1)

    def test_torus3(self):
        h = homology(torus3_complex())
        assert h.betti_vector([0, 1, 2, 3]) == (1, 3, 3, 1)

    def test_s2xs2(self):
        h = homology(s2xs2_complex())
        assert h.betti_vector([0, 1, 2, 3, 4]) == (1, 0, 2, 0, 1)

    def test_projective_plane_torsion(self):
        # minimal RP^2 triangulation: antipodal identification of icosahedron
        from oracles import simplicial_chain_complex
        rp2 = simplicial_chain_complex([
            (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)])
        h = homology(rp2)
        assert h.betti_vector([0, 1, 2]) == (1, 0, 0)
        assert h.torsion(1) == (2,)
        h2 = homology(rp2.to_mod2())
        assert h2.betti_vector([0, 1, 2]) == (1, 1, 1)

    def test_zero_complex(self):
        c = GradedComplex({0: ("x",), 2: ("y",)}, {})
        h = homology(c)
        assert h.betti_vector([0, 1, 2]) == (1, 0, 1)


class TestCochain:
    def test_cochain_squares_to_zero(self):
        c = sphere2_complex()
        cc = cochain_complex(c)
        assert cc.shift == 1
        cc.check_square_zero()

    def test_torus_cohomology_ranks(self):
        cc = cochain_complex(torus_delta_complex())
        h = homology(cc)
        assert h.betti_vector([0, 1, 2]) == (1, 2, 1)

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(5)
        c = torus_delta_complex()
        cc = cochain_complex(c)
        # <delta phi, x> = <phi, d x> for random cochains/chains per degree
        for p in (1, 2):
            d = c.map_from(p)                    # C_p -> C_{p-1}
            delta = cc.map_from(p - 1)           # C^{p-1} -> C^p
            assert np.array_equal(delta, d.T)
            phi = rng.integers(-4, 5, size=(c.dim(p - 1), 1))
            x = rng.integers(-4, 5, size=(c.dim(p), 1))
            lhs = (delta @ phi).T @ x
            rhs = phi.T @ (d @ x)
            assert int(lhs[0, 0]) == int(rhs[0, 0])


class TestMod2:
    def test_rank_mod2(self):
        assert rank_mod2(np.array([[1, 1], [1, 1]], dtype=object)) == 1
        assert rank_mod2(np.array([[2, 4], [6, 8]], dtype=object)) == 0

    def test_mod2_reduction_matches(self):
        c = torus_delta_complex()
        h2 = homology(c.to_mod2())
        assert h2.betti_vector([0, 1, 2]) == (1, 2, 1)


class TestSplitComplex:
    def test_open_star_is_not_closed(self):
        # simplices containing a fixed vertex have faces outside the set
        c = sphere2_complex()
        with pytest.raises(AdmissibilityError):
            split_complex(c, lambda p, label: "3" in label)

    def test_full_subcomplex_split(self):
        # simplices avoiding vertex 3 form a solid triangle (contractible)
        c = sphere2_complex()
        pair = split_complex(c, lambda p, label: "3" not in label)
        hs = homology(pair.sub)
        assert hs.betti_vector([0, 1, 2]) == (1, 0, 0)

    def test_valid_split_with_zero_differential(self):
        c = GradedComplex({0: ("m",), 1: ("s",), 2: ("N", "S")},
                          {2: np.array([[1], [1]], dtype=object).T})
        # sub = {m, s}: differential of N,S lands on s (not in sub? s is in
        # sub), and s has zero boundary, so {m, s} is closed.
        pair = split_complex(c, lambda p, g: g in ("m", "s"))
        hs = homology(pair.sub)
        hq = homology(pair.quotient)
        assert hs.betti_vector([0, 1]) == (1, 1)
        assert hq.betti_vector([2]) == (2,)

    def test_connecting_map_of_sphere_pair(self):
        # pair (D^2-like cone, boundary circle): connecting map is rank 1
        # C: v0, v1 ; edges a (v0->v1 twice): use circle as sub of disk-ish
        # complex: total: vertices v, edges a, faces F with dF = a
        total = GradedComplex(
            {0: ("v",), 1: ("a",), 2: ("F",)},
            {1: np.zeros((1, 1), dtype=object),
             2: np.array([[1]], dtype=object)})
        pair = split_complex(total, lambda p, g: g in ("v", "a"))
        delta = pair.connecting_map(2)
        assert delta.shape == (1, 1)
        assert abs(int(delta[0, 0])) == 1

    def test_long_exact_sequence_euler_check(self):
        # chi(total) = chi(sub) + chi(quotient) for any valid split
        c = s2xs2_complex()
        pair = split_complex(
            c, lambda p, g: "3" not in g.split("|")[0])
        def chi(cx):
            return sum((-1) ** p * cx.dim(p) for p in cx.degrees())
        assert chi(c) == chi(pair.sub) + chi(pair.quotient)


class TestChainMapDefect:
    def test_identity_is_chain_map(self):
        c = torus_delta_complex()
        mats = {p: np.eye(c.dim(p), dtype=object) for p in c.degrees()}
        assert chain_map_defect(c, c, mats, 0) == 0

    def test_non_chain_map_detected(self):
        c = torus_delta_complex()
        mats = {p: np.eye(c.dim(p), dtype=object) for p in c.degrees()}
        mats[2] = np.array([[1, 0], [0, 2]], dtype=object)
        assert chain_map_defect(c, c, mats, 0) > 0
