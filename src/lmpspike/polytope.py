"""Halfspace polytopes {x : G x <= w} and the operations the region machinery needs.

A polytope pairs its halfspace rows with a cached vertex set, computed once by
a qhull halfspace intersection (`scipy.spatial.HalfspaceIntersection`) seeded
at the Chebyshev center, or in closed form for an interval, and with its
unit-norm form, also computed once, in one array pass.  Redundancy removal,
support values, bounding boxes and facet points are read off the vertices:
a row is kept when the vertices on its hyperplane span a facet that no
earlier row holds, so of the rows on one facet the first stays.
LPs (HiGHS) remain only for the Chebyshev center, which also decides
emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from . import lp
from .errors import InfeasibleError, NumericalError

# rows with coefficient norm below this are treated as constant constraints
ZERO_ROW_TOL = 1e-11
# Chebyshev radius at or below which a polytope counts as empty or
# lower-dimensional: qhull needs a point strictly inside
FLAT_TOL = 1e-9
# slack within which a vertex lies on a row's hyperplane, and the spread a
# facet's vertices need to span it
FACET_TOL = 1e-8


@dataclass(frozen=True)
class Polytope:
    G: np.ndarray
    w: np.ndarray
    _cheb: tuple[np.ndarray, float] | None = field(default=None, compare=False)
    _verts: np.ndarray | None = field(default=None, compare=False)
    _norm: Polytope | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_rows(G, w) -> "Polytope":
        G = np.atleast_2d(np.asarray(G, dtype=float))
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if G.shape[0] != w.shape[0]:
            raise ValueError("G and w row counts differ")
        return Polytope(G, w)

    @property
    def dim(self) -> int:
        return self.G.shape[1]

    @property
    def n_rows(self) -> int:
        return self.G.shape[0]

    def normalized(self) -> "Polytope":
        """Scale every row to unit norm; drop trivially true constant rows.

        Computed once and cached.  The result carries no cache of its own:
        normalizing it again divides by norms a few ulps off 1, and the
        Chebyshev centers depend on those bits.
        """
        if self._norm is None:
            # sqrt of vecdot rounds exactly like np.linalg.norm of each row
            r = np.sqrt(np.vecdot(self.G, self.G))
            flat = r <= ZERO_ROW_TOL
            # 0 <= w with w < 0: keep a marker row that makes the set empty
            keep = ~flat | (self.w < -1e-9)
            r[flat] = 1.0
            G = self.G / r[:, None]
            G[flat] = 0.0
            object.__setattr__(self, "_norm",
                               Polytope(G[keep], (self.w / r)[keep]))
        return self._norm

    def contains(self, x, tol=1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.n_rows == 0:
            return True
        return bool(np.all(self.G @ x <= self.w + tol * (1.0 + np.abs(self.w))))

    def chebyshev(self) -> tuple[np.ndarray, float]:
        """Center and radius of the largest inscribed ball.

        The radius is capped so unbounded polyhedra do not break the LP; a
        negative radius signals emptiness.
        """
        if self._cheb is not None:
            return self._cheb
        p = self.normalized()
        if p.n_rows == 0:
            center, radius = np.zeros(self.dim), np.inf
        else:
            d = self.dim
            cap = 1e12
            c = np.zeros(d + 1)
            c[-1] = -1.0
            A = np.hstack([p.G, np.ones((p.n_rows, 1))])
            bounds = [(None, None)] * d + [(None, cap)]
            res = lp.solve_lp(c, A_ub=A, b_ub=p.w, bounds=bounds)
            if res.status != lp.OPTIMAL:
                raise NumericalError(f"Chebyshev LP status {res.status}")
            center, radius = res.x[:d], float(res.x[d])
        object.__setattr__(self, "_cheb", (center, radius))
        return center, radius

    def is_empty(self) -> bool:
        return self.chebyshev()[1] < -1e-9

    def vertices(self) -> np.ndarray:
        """Vertex set, one row per vertex; computed once and cached.

        One qhull halfspace intersection seeded at the Chebyshev center, or
        the closed-form interval in one dimension.  The polytope must be
        bounded and full-dimensional: an empty or lower-dimensional one
        raises InfeasibleError, an unbounded one ValueError, and a qhull
        failure NumericalError.
        """
        if self._verts is not None:
            return self._verts
        center, radius = self.chebyshev()
        if radius <= FLAT_TOL:
            raise InfeasibleError("polytope is empty or lower-dimensional "
                                  f"(Chebyshev radius {radius:.2e})")
        p = self.normalized()
        if self.dim == 1:
            g = p.G[:, 0]
            if not (np.any(g > 0.0) and np.any(g < 0.0)):
                raise ValueError("polytope is unbounded")
            verts = np.array([[np.max(p.w[g < 0.0] / g[g < 0.0])],
                              [np.min(p.w[g > 0.0] / g[g > 0.0])]])
        else:
            if p.n_rows <= self.dim:
                raise ValueError("polytope is unbounded")
            try:
                # an unbounded polytope puts the seed on its dual hull: the
                # intersections divide by zero there and come out non-finite
                with np.errstate(divide="ignore", invalid="ignore"):
                    hs = HalfspaceIntersection(
                        np.hstack([p.G, -p.w[:, None]]), center)
            except QhullError as exc:
                raise NumericalError(
                    f"qhull halfspace intersection failed: {exc}") from None
            verts = hs.intersections
            if not np.all(np.isfinite(verts)):
                raise ValueError("polytope is unbounded")
        object.__setattr__(self, "_verts", verts)
        return verts

    def remove_redundancy(self) -> "Polytope":
        """Minimal representation, read off the vertex set.

        A row stays when the vertices within FACET_TOL of its hyperplane
        span a facet, a (d-1)-dimensional face, and no earlier row holds the
        same vertices: of the rows on one facet, near-duplicates included,
        the first stays.  The result is a row subset of `normalized()` in
        the original order and carries the vertex set along.  An empty
        polytope comes back normalized; a lower-dimensional one raises
        InfeasibleError.
        """
        p = self.normalized()
        if p.n_rows == 0 or self.is_empty():
            return p
        verts = self.vertices()
        slack = p.w[:, None] - p.G @ verts.T
        seen: set[tuple[int, ...]] = set()
        keep: list[int] = []
        for i, row in enumerate(slack):
            on = np.flatnonzero(row <= FACET_TOL)
            if tuple(on) not in seen:
                seen.add(tuple(on))
                if _spans_facet(verts[on], self.dim):
                    keep.append(i)
        return Polytope(p.G[keep], p.w[keep], _verts=verts)

    def facet_point(self, i: int) -> np.ndarray | None:
        """Centroid of the vertices on row i's hyperplane (None when none lie on it)."""
        p = self.normalized()
        verts = self.vertices()
        on = p.w[i] - verts @ p.G[i] <= FACET_TOL
        if not on.any():
            return None
        return verts[on].mean(axis=0)

    def support(self, direction) -> float:
        """max direction @ x over the polytope, attained at a vertex."""
        return float(np.max(self.vertices() @ np.asarray(direction, dtype=float)))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        verts = self.vertices()
        return verts.min(axis=0), verts.max(axis=0)

    def to_dict(self) -> dict:
        return {"G": self.G.tolist(), "w": self.w.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "Polytope":
        return Polytope.from_rows(d["G"], d["w"])


def _spans_facet(points, dim: int) -> bool:
    """Whether the points span a (dim-1)-dimensional affine set."""
    if points.shape[0] < dim:
        return False
    if dim == 1:
        return True
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return bool(s[dim - 2] > FACET_TOL)


def box_polytope(lo, hi) -> Polytope:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = lo.size
    eye = np.eye(d)
    return Polytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))
