"""Concrete manifold models: spheres by embedding, tori by periodic charts,
and products by concatenation.

Points are numpy arrays of length ``coord_dim``; every model supplies a
projection (nearest point or wrap), tangent projection, and a distance used
for convergence and event detection.  The integrator reads the projection
and the distance sweep on lists of Python floats (``project_floats``,
``distance_sweep``): tori compute them natively, bit for bit the numpy
forms, and every other model adapts its numpy methods.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError

TWO_PI = 2.0 * np.pi


class ManifoldModel:
    __slots__ = ()
    dim: int
    coord_dim: int

    def project(self, x):
        raise NotImplementedError

    def tangent_project(self, x, v):
        raise NotImplementedError

    def distance(self, x, y):
        raise NotImplementedError

    def displacement(self, x, y):
        """Coordinate difference y - x respecting periodicity."""
        raise NotImplementedError

    def random_point(self, rng):
        raise NotImplementedError

    def tangent_basis(self, x):
        """Orthonormal basis of the tangent space, coord_dim x dim."""
        raise NotImplementedError

    def oriented_tangent_basis(self, x):
        """Tangent basis in the manifold's fixed orientation class."""
        raise NotImplementedError

    def distances(self, x, pts):
        """Distances from x to each row of pts."""
        return np.array([self.distance(x, p) for p in pts])

    def project_floats(self, x):
        """``project`` on a list of floats, returned as a list."""
        return self.project(np.array(x)).tolist()

    def distance_sweep(self, pts):
        """The function taking a point (a list of floats) to the list of
        its ``distances`` to the rows of ``pts``."""
        def sweep(x):
            return self.distances(np.array(x), pts).tolist()
        return sweep


class SphereModel(ManifoldModel):
    """Unit n-sphere embedded in R^{n+1}; projection is normalization."""

    def __init__(self, dim):
        self.dim = int(dim)
        self.coord_dim = self.dim + 1

    def project(self, x):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            raise GeometryError("cannot project the origin to the sphere")
        return x / nrm

    def tangent_project(self, x, v):
        return v - np.dot(v, x) * x

    def distance(self, x, y):
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))

    def displacement(self, x, y):
        return np.asarray(y, dtype=float) - np.asarray(x, dtype=float)

    def random_point(self, rng):
        v = rng.standard_normal(self.coord_dim)
        return self.project(v)

    def distances(self, x, pts):
        return np.linalg.norm(np.asarray(pts) - np.asarray(x), axis=1)

    def tangent_basis(self, x):
        # orthonormal completion of x: columns 2.. of a Householder frame
        x = np.asarray(x, dtype=float)
        basis = np.zeros((self.coord_dim, self.dim))
        e = np.zeros(self.coord_dim)
        k = int(np.argmax(np.abs(x)))
        e[k] = 1.0 if x[k] >= 0 else -1.0
        w = x + e
        w /= np.linalg.norm(w)
        H = np.eye(self.coord_dim) - 2.0 * np.outer(w, w)  # H e = -x
        cols = [j for j in range(self.coord_dim) if j != k]
        for out, j in enumerate(cols):
            basis[:, out] = H[:, j]
        return basis

    def oriented_tangent_basis(self, x):
        # orientation: tangent basis followed by the outward normal is
        # positively oriented in the ambient space
        b = self.tangent_basis(x)
        full = np.concatenate([b, np.asarray(x, dtype=float)[:, None]], axis=1)
        if np.linalg.det(full) < 0:
            b = b.copy()
            b[:, 0] = -b[:, 0]
        return b

    def __repr__(self):
        return "SphereModel(dim=%d)" % self.dim


class TorusModel(ManifoldModel):
    """Flat n-torus with angle coordinates in [0, 2*pi)."""

    __slots__ = ("dim", "coord_dim")

    def __init__(self, dim):
        self.dim = int(dim)
        self.coord_dim = self.dim

    def project(self, x):
        return np.mod(np.asarray(x, dtype=float), TWO_PI)

    def tangent_project(self, x, v):
        return np.asarray(v, dtype=float)

    def displacement(self, x, y):
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        return (d + np.pi) % TWO_PI - np.pi

    def distance(self, x, y):
        return float(np.linalg.norm(self.displacement(x, y)))

    def random_point(self, rng):
        return rng.uniform(0.0, TWO_PI, size=self.dim)

    def distances(self, x, pts):
        d = (np.asarray(pts) - np.asarray(x) + np.pi) % TWO_PI - np.pi
        return np.linalg.norm(d, axis=1)

    def project_floats(self, x):
        # Python's float % is np.mod: the same wrap, bit for bit
        return [v % TWO_PI for v in x]

    def distance_sweep(self, pts):
        # norm(axis=1) squares and adds each row left to right, then takes
        # the square root; the sweep runs the same operations column by
        # column
        cols = np.asarray(pts, dtype=float).T.tolist()
        pi, sqrt = math.pi, math.sqrt

        def sweep(x):
            acc = None
            for col, q in zip(cols, x):
                sq = [(d := (p - q + pi) % TWO_PI - pi) * d for p in col]
                acc = sq if acc is None else [a + b for a, b in zip(acc, sq)]
            return [sqrt(a) for a in acc]
        return sweep

    def tangent_basis(self, x):
        return np.eye(self.dim)

    def oriented_tangent_basis(self, x):
        return np.eye(self.dim)

    def __repr__(self):
        return "TorusModel(dim=%d)" % self.dim


class ProductModel(ManifoldModel):
    """Cartesian product with concatenated coordinates and block metric."""

    def __init__(self, first, second):
        self.factors = (first, second)
        self.dim = first.dim + second.dim
        self.coord_dim = first.coord_dim + second.coord_dim
        self._split = first.coord_dim

    def parts(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., :self._split], x[..., self._split:]

    def join(self, a, b):
        return np.concatenate([np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float)], axis=-1)

    def project(self, x):
        a, b = self.parts(x)
        return self.join(self.factors[0].project(a),
                         self.factors[1].project(b))

    def tangent_project(self, x, v):
        a, b = self.parts(x)
        va, vb = self.parts(v)
        return self.join(self.factors[0].tangent_project(a, va),
                         self.factors[1].tangent_project(b, vb))

    def displacement(self, x, y):
        xa, xb = self.parts(x)
        ya, yb = self.parts(y)
        return self.join(self.factors[0].displacement(xa, ya),
                         self.factors[1].displacement(xb, yb))

    def distance(self, x, y):
        return float(np.linalg.norm(self.displacement(x, y)))

    def random_point(self, rng):
        return self.join(self.factors[0].random_point(rng),
                         self.factors[1].random_point(rng))

    def distances(self, x, pts):
        pts = np.asarray(pts)
        xa, xb = self.parts(x)
        da = self.factors[0].distances(xa, pts[:, :self._split])
        db = self.factors[1].distances(xb, pts[:, self._split:])
        return np.sqrt(da ** 2 + db ** 2)

    def tangent_basis(self, x):
        a, b = self.parts(x)
        ba = self.factors[0].tangent_basis(a)
        bb = self.factors[1].tangent_basis(b)
        out = np.zeros((self.coord_dim, self.dim))
        out[:self._split, :self.factors[0].dim] = ba
        out[self._split:, self.factors[0].dim:] = bb
        return out

    def oriented_tangent_basis(self, x):
        a, b = self.parts(x)
        ba = self.factors[0].oriented_tangent_basis(a)
        bb = self.factors[1].oriented_tangent_basis(b)
        out = np.zeros((self.coord_dim, self.dim))
        out[:self._split, :self.factors[0].dim] = ba
        out[self._split:, self.factors[0].dim:] = bb
        return out

    def __repr__(self):
        return "ProductModel(%r, %r)" % self.factors
