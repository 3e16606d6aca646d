"""Feasible sets (compact convex domains) with linear minimization oracles.

Each set supports three operations: ``lmo`` (minimize a linear function over
the set), ``violation`` (constraint slack of a finite point, 0 inside), and
``diameter`` (sup of pairwise Euclidean distances). Module-level
``contains`` tests membership up to a slack.

Tie-breaking is deterministic everywhere: lowest-index vertex (hulls),
lowest-index coordinate (l1 ball), and sign(0) = +1 (boxes), so trajectories
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# scipy.optimize.nnls minus its input checks, bound when the first VertexHull is built, so
# that only the hull loads scipy.optimize
_nnls = None

__all__ = [
    "VertexHull",
    "Box",
    "L1Ball",
    "NuclearBall",
    "contains",
]


def _check_vector(dim: int, v, what: str) -> np.ndarray:
    """v as a flat float array; a ValueError naming it what unless it has dim finite entries."""
    x = np.asarray(v, dtype=float).ravel()
    if x.shape[0] != dim:
        raise ValueError(f"{what} dimension {x.shape[0]} does not match set dimension {dim}")
    if np.count_nonzero(np.isfinite(x)) != x.size:  # skips the Python wrapper of .all()
        raise ValueError(f"{what} has non-finite entries")
    return x


@dataclass(frozen=True, eq=False)
class VertexHull:
    """Convex hull of a finite vertex list (one point per row)."""

    vertices: np.ndarray
    # violation's NNLS matrix: the vertices as columns over a sum-to-one row
    _nnls_system: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        global _nnls
        if _nnls is None:
            from scipy.optimize._slsqplib import nnls as _nnls
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] < 1:
            raise ValueError("VertexHull needs at least one vertex")
        if not np.isfinite(v).all():
            raise ValueError("VertexHull vertices must be finite")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_nnls_system", np.vstack([v.T, np.ones(v.shape[0])]))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        # argmin returns the first (lowest-index) minimizer on ties
        i = int((self.vertices @ g).argmin())
        return self.vertices[i].copy()

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        # Nonnegative least squares over vertex weights with a sum-to-one row, capped like
        # scipy.optimize.nnls at 3 iterations per vertex; the residual is ~0 iff x is a convex
        # combination of the vertices. nnls leaves the matrix built at construction unchanged.
        target = np.empty(x.shape[0] + 1)
        target[:-1] = x
        target[-1] = 1.0
        _, resid, info = _nnls(self._nnls_system, target, 3 * self.vertices.shape[0])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return float(resid)

    def diameter(self) -> float:
        v = self.vertices
        diffs = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=2).max()))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower, upper]^dim.

    The shipped problems (scalar_box, scalar_huber) build it only at dim 1, so
    ``violation`` reads the point as a Python list rather than with numpy reductions.
    """

    lower: float
    upper: float
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower < self.upper:
            raise ValueError("Box requires lower < upper")
        if self.dim < 1:
            raise ValueError("Box dimension must be >= 1")

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        # sign(0) = +1 convention: zero coordinates pick the lower face
        return np.where(g >= 0.0, self.lower, self.upper)

    def violation(self, point) -> float:
        xs = _check_vector(self.dim, point, "point").tolist()
        # rounding is monotone, so max(x) - upper is the largest x_i - upper, bit for bit
        return max(0.0, max(xs) - self.upper, self.lower - min(xs))

    def diameter(self) -> float:
        return (self.upper - self.lower) * float(np.sqrt(self.dim))


@dataclass(frozen=True)
class L1Ball:
    """l1-norm ball of radius alpha."""

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("L1Ball radius must be positive")
        if self.dim < 1:
            raise ValueError("L1Ball dimension must be >= 1")

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        j = int(np.argmax(np.abs(g)))  # lowest index on ties
        s = np.zeros(self.dim)
        s[j] = -self.radius if g[j] >= 0.0 else self.radius
        return s

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        return max(0.0, float(np.abs(x).sum() - self.radius))

    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class NuclearBall:
    """Nuclear-norm ball of radius alpha over rows x cols matrices.

    Points are passed flattened (row-major, length rows*cols).
    """

    radius: float
    rows: int
    cols: int

    # power iteration settings for large matrices
    _svd_cutoff = 8
    _power_max_iter = 1000
    _power_tol = 1e-10

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("NuclearBall radius must be positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("NuclearBall shape must be positive")

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        G = g.reshape(self.rows, self.cols)
        if np.all(G == 0.0):
            u = np.zeros(self.rows)
            v = np.zeros(self.cols)
            u[0] = v[0] = 1.0
        elif min(self.rows, self.cols) <= self._svd_cutoff:
            U, _, Vt = np.linalg.svd(G, full_matrices=False)
            u, v = U[:, 0], Vt[0]
        else:
            u, v = self._top_singular_pair(G)
        return (-self.radius * np.outer(u, v)).ravel()

    def _top_singular_pair(self, G):
        # power iteration on G^T G from a fixed seeded start vector
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.cols)
        v /= np.linalg.norm(v)
        # w = G^T (G v) serves both as the Rayleigh-quotient product on v and
        # as the next round's iterate, so each round costs two products
        Gv = G @ v
        w = G.T @ Gv
        rayleigh = 0.0
        for _ in range(self._power_max_iter):
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
            Gv = G @ v
            w = G.T @ Gv
            new_rayleigh = float(v @ w)
            if abs(new_rayleigh - rayleigh) <= self._power_tol * max(1.0, new_rayleigh):
                break
            rayleigh = new_rayleigh
        u = Gv / np.linalg.norm(Gv)
        return u, v

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        nuc = float(np.linalg.svd(x.reshape(self.rows, self.cols), compute_uv=False).sum())
        return max(0.0, nuc - self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius


def contains(feasible_set, point, tol: float = 1e-9) -> bool:
    """True iff the point is within constraint slack ``tol`` of the set; ``tol`` may be inf."""
    if not tol >= 0:  # true for nan too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return feasible_set.violation(point) <= tol
