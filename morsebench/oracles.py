"""Answers reached without the flow-counting code, and the checks that
compare an operation's output with them.

Each check returns a list of mismatch descriptions; an empty list means the
output is right.  Outputs are the plain JSON-like values built in
``workloads.py`` (matrices as nested lists of ints).
"""

from __future__ import annotations

from math import comb


# -- Kuenneth: the flat torus with a sum of cosine wells ----------------------

def torus_generators(n):
    """Catalog labels of ``torus_cosine(n, ...)`` by degree.

    A label is ``x`` followed by one bit per angle; the bit is 1 where that
    angle sits at its peak, and the degree is the number of peaks.
    """
    out = {}
    for bits in range(2 ** n):
        pattern = [(bits >> i) & 1 for i in range(n)]
        out.setdefault(sum(pattern), []).append(
            "x" + "".join(str(b) for b in pattern))
    return out


def check_torus_homology(n, output):
    """Kuenneth: the complex is the tensor power of the circle complex.

    One circle factor has a minimum and a maximum joined by two flow lines
    of opposite sign, so its differential is zero; the tensor product then
    has zero differentials and Betti numbers binomial(n, k), no torsion.
    """
    problems = []
    gens = torus_generators(n)
    for p in range(n + 1):
        if output["generators"].get(str(p)) != gens[p]:
            problems.append("degree %d generators %s, expected %s"
                            % (p, output["generators"].get(str(p)), gens[p]))
        if output["betti"].get(str(p)) != comb(n, p):
            problems.append("b_%d = %s, expected %d"
                            % (p, output["betti"].get(str(p)), comb(n, p)))
        if output["torsion"].get(str(p)):
            problems.append("torsion %s in degree %d"
                            % (output["torsion"][str(p)], p))
    for p, mat in output["differentials"].items():
        rows, cols = len(gens[int(p) - 1]), len(gens[int(p)])
        if len(mat) != rows or any(len(r) != cols for r in mat):
            problems.append("d_%s has the wrong shape" % p)
        if any(v != 0 for r in mat for v in r):
            problems.append("d_%s = %s, expected zero" % (p, mat))
    return problems


# -- the 2-sphere band, relative to the band {z^2 < 0.25} ---------------------

# Values of the committed CLI golden for
# ``morseflow --json homology band.cfg --relative band:0.25`` with
# ``kind sphere-band / dim 2 / eps 0.15``: the band carries a circle
# (rim_lo, rim_hi joined by two cancelling lines), the quotient the two
# polar caps, and the total complex the 2-sphere.
BAND_RELATIVE = {
    "blocks": {
        "quotient": {"betti": {"2": 2}, "differentials": {},
                     "generators": {"2": ["pole+", "pole-"]},
                     "torsion": {"2": []}},
        "subcomplex": {"betti": {"0": 1, "1": 1},
                       "differentials": {"1": [[0]]},
                       "generators": {"0": ["rim_lo"], "1": ["rim_hi"]},
                       "torsion": {"0": [], "1": []}},
        "total": {"betti": {"0": 1, "1": 0, "2": 1},
                  "differentials": {"1": [[0]], "2": [[1, 1]]},
                  "generators": {"0": ["rim_lo"], "1": ["rim_hi"],
                                 "2": ["pole+", "pole-"]},
                  "torsion": {"0": [], "1": [], "2": []}},
    },
    "ring": "Z",
    "system": "sphere2_band",
}


def check_band_cli(output):
    if output != BAND_RELATIVE:
        return ["CLI output differs from the golden values: %s" % output]
    return []


# -- embedding identities for a factor circle in T2 ---------------------------

def _abs_sorted(mat):
    return sorted(abs(v) for row in mat for v in row)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def check_pushforward(push):
    """The circle's point class maps to the point class; its fundamental
    class maps to one of the two circle classes of T2, up to sign."""
    problems = []
    if push.get("0") != [[1]]:
        problems.append("push[0] = %s, expected [[1]]" % push.get("0"))
    if _abs_sorted(push.get("1", [])) != [0, 1]:
        problems.append("|push[1]| = %s, expected [0, 1]"
                        % _abs_sorted(push.get("1", [])))
    return problems


def check_umkehr(umk, push=None):
    """The fundamental class of T2 caps to the circle's fundamental class;
    exactly one circle class of T2 meets the circle once; and the circle
    does not meet its own push-off, so umkehr[1] . push[1] = 0."""
    problems = []
    if _abs_sorted(umk.get("2", [])) != [1]:
        problems.append("|umkehr[2]| = %s, expected [1]"
                        % _abs_sorted(umk.get("2", [])))
    if _abs_sorted(umk.get("1", [])) != [0, 1]:
        problems.append("|umkehr[1]| = %s, expected [0, 1]"
                        % _abs_sorted(umk.get("1", [])))
    if push is not None and not problems and "1" in push:
        prod = _matmul(umk["1"], push["1"])
        if prod != [[0]]:
            problems.append("umkehr[1] . push[1] = %s, expected [[0]]" % prod)
    return problems


def int_det(mat):
    """Exact determinant of a square integer matrix (Bareiss)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_continuation(mats, n=2):
    """Between two perfect Morse functions on T^n the continuation map is an
    isomorphism over Z: each degree block is square and unimodular."""
    problems = []
    gens = torus_generators(n)
    for p in range(n + 1):
        mat = mats.get(str(p))
        size = len(gens[p])
        if mat is None or len(mat) != size or any(len(r) != size for r in mat):
            problems.append("continuation[%d] = %s is not %dx%d"
                            % (p, mat, size, size))
        elif abs(int_det(mat)) != 1:
            problems.append("det continuation[%d] = %d, expected +-1"
                            % (p, int_det(mat)))
    return problems


# -- intersection product on T2 -----------------------------------------------

def torus_intersection_table(n=2):
    """Closed-form intersection products of the catalog classes of T^n.

    The class of ``x_S`` (S = angles at their peak) is Poincare dual to the
    wedge of dx_i over the angles i outside S, taken in increasing order.
    Products are computed in the exterior algebra and mapped back, so the
    fundamental class is the unit and, on T2, x10 . x01 = -x00 and
    x01 . x10 = +x00.
    """
    gens = [g for p in sorted(torus_generators(n))
            for g in torus_generators(n)[p]]

    def dual(label):
        return tuple(i for i in range(n) if label[1 + i] == "0")

    def label_of(dual_set):
        return "x" + "".join("0" if i in dual_set else "1" for i in range(n))

    def wedge_sign(a, b):
        inversions = sum(1 for i in a for j in b if i > j)
        return -1 if inversions % 2 else 1

    table = {}
    for g1 in gens:
        for g2 in gens:
            a, b = dual(g1), dual(g2)
            if set(a) & set(b):
                table[(g1, g2)] = {}
            else:
                joined = tuple(sorted(a + b))
                table[(g1, g2)] = {label_of(joined): wedge_sign(a, b)}
    return table


def check_operation_table(output):
    want = {"%s,%s" % k: v for k, v in torus_intersection_table().items()}
    problems = []
    for key in sorted(set(want) | set(output)):
        if output.get(key) != want.get(key):
            problems.append("%s -> %s, expected %s"
                            % (key, output.get(key), want.get(key)))
    return problems
