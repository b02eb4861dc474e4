"""Vector bundles as projector-valued subbundles of a trivial bundle.

A bundle assigns to every base point an orthogonal projector of constant
rank r acting on R^N; an orientation is a frame field spanning the fiber
whose orientation class varies continuously (the frames themselves may
jump chart to chart).
"""

from __future__ import annotations

import numpy as np

from ..errors import OrientationError, StructuralValidationError


class VectorBundleModel:
    """rank-r subbundle of the trivial R^N bundle over a manifold model."""

    def __init__(self, base, rank, fiber_ambient_dim, projector,
                 oriented_frame=None, name="bundle", trivial_section=None):
        self.base = base
        self.rank = int(rank)
        self.fiber_ambient_dim = int(fiber_ambient_dim)
        self.projector = projector
        self.oriented_frame = oriented_frame
        self.name = name
        # an explicit nowhere-zero section, when the bundle carries one
        self.trivial_section = trivial_section

    @property
    def orientable(self):
        return self.oriented_frame is not None

    def frame_at(self, x):
        if not self.orientable:
            raise OrientationError("bundle %s carries no orientation" % self.name)
        fr = np.asarray(self.oriented_frame(x), dtype=float)
        P = self.projector(x)
        if fr.shape != (self.fiber_ambient_dim, self.rank):
            raise StructuralValidationError(
                "orientation frame of %s has wrong shape" % self.name)
        if np.linalg.norm(P @ fr - fr) > 1e-8:
            raise OrientationError(
                "orientation frame of %s leaves the fiber" % self.name)
        if np.linalg.matrix_rank(fr, tol=1e-8) < self.rank:
            raise OrientationError(
                "orientation frame of %s is degenerate" % self.name)
        return fr

    def check_invariants(self, points):
        """Constant rank at samples; orientation continuity along the
        piecewise path through them (24 steps a piece, so frame comparisons
        stay meaningful even across chart switches)."""
        for x in points:
            P = self.projector(x)
            evals = np.linalg.eigvalsh(P)
            r = int(np.sum(evals > 0.5))
            if r != self.rank:
                raise StructuralValidationError(
                    "projector rank %d != declared %d at a sample" % (r, self.rank))
            if np.linalg.norm(P @ P - P) > 1e-8:
                raise StructuralValidationError("projector is not idempotent")
        if not self.orientable or len(points) < 2:
            return
        man = self.base
        for a, b in zip(points, points[1:]):
            prev = self.frame_at(a)
            for s in np.linspace(0.0, 1.0, 25)[1:]:
                x = man.project((1.0 - s) * np.asarray(a) + s * np.asarray(b))
                fr = self.frame_at(x)
                det = np.linalg.det(prev.T @ fr)
                if det < 1e-6:
                    raise OrientationError(
                        "orientation flips along the sampled path of %s"
                        % self.name)
                prev = fr

    def __repr__(self):
        return "VectorBundleModel(%s, rank=%d)" % (self.name, self.rank)


def trivial_bundle(base, rank):
    eye = np.eye(rank)

    def projector(x):
        return eye

    def frame(x):
        return eye

    def section(x):
        v = np.zeros(rank)
        v[0] = 1.0
        return v

    return VectorBundleModel(base, rank, rank, projector, frame,
                             name="trivial%d" % rank,
                             trivial_section=section)


def sphere_tangent_bundle(base):
    """TS^n inside the trivial R^{n+1} bundle, oriented on every sphere by
    the base's oriented tangent basis: followed by the outward normal, it
    is positively oriented in R^{n+1}."""
    n = base.dim
    N = base.coord_dim

    def projector(x):
        x = np.asarray(x, dtype=float)
        return np.eye(N) - np.outer(x, x)

    return VectorBundleModel(base, n, N, projector,
                             base.oriented_tangent_basis, name="TS%d" % n)


def torus_tangent_bundle(base):
    """The flat torus tangent bundle, honestly trivial in angle charts."""
    n = base.dim
    eye = np.eye(n)

    def projector(x):
        return eye

    def frame(x):
        return eye

    def section(x):
        v = np.ones(n)
        return v / np.linalg.norm(v)

    return VectorBundleModel(base, n, n, projector, frame,
                             name="TT%d" % n, trivial_section=section)


def whitney_sum_with_trivial(bundle):
    """E + R: block projector, block frame, explicit unit section."""
    N = bundle.fiber_ambient_dim + 1
    r = bundle.rank + 1

    def projector(x):
        P = np.zeros((N, N))
        P[:-1, :-1] = bundle.projector(x)
        P[-1, -1] = 1.0
        return P

    frame = None
    if bundle.orientable:
        def frame(x):
            F = np.zeros((N, r))
            F[:-1, :-1] = bundle.oriented_frame(x)
            F[-1, -1] = 1.0
            return F

    def section(x):
        v = np.zeros(N)
        v[-1] = 1.0
        return v

    return VectorBundleModel(bundle.base, r, N, projector, frame,
                             name=bundle.name + "+triv1",
                             trivial_section=section)


def unorientable_stub(base):
    """Rank-1 bundle flagged unorientable (orientation data withheld)."""
    eye = np.eye(1)
    return VectorBundleModel(base, 1, 1, lambda x: eye, None,
                             name="unorientable1")
