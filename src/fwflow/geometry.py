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

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .tableau import _number

# the slack within which a point counts as inside a set: run() rejects a start point beyond it
FEASIBILITY_TOL = 1e-9

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


def _checked(values, shape: tuple, what: str) -> np.ndarray:
    """values as a finite float array of shape `shape` (None: any length >= 1), or a ValueError."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers: fails the shape test below
        a = np.empty(0)
    if a.ndim != len(shape) or not all(n >= 1 and m in (None, n) for n, m in zip(a.shape, shape)):
        raise ValueError(f"{what} must be a nonempty array of shape {shape}, None for any length")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{what} has non-finite entries")
    return a


@functools.cache
def _compiled(module: str, name: str):
    """name from scipy's compiled module (say "scipy.optimize._slsqplib"), loaded from its
    extension file without running the __init__.py of the packages around it, which would
    load tens of MB of scipy that a run never calls."""
    import scipy  # runs scipy._distributor_init, as any import of a scipy module does
    loaded = sys.modules.get(module)  # there if its package was imported first
    if loaded is None:
        package = importlib.util.find_spec(module.rpartition(".")[0])  # found, not imported
        spec = importlib.machinery.PathFinder.find_spec(module, package.submodule_search_locations)
        if spec is None:
            raise ImportError(f"fwflow needs scipy >= 1.17: no compiled module {module} "
                              f"in scipy {scipy.__version__}", name=module)
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        # a single-phase extension puts itself in sys.modules; left there, it would keep a
        # later import of its package from binding it, and the same function, as an attribute
        sys.modules.pop(module, None)
    return getattr(loaded, name)


@dataclass(frozen=True, eq=False)
class VertexHull:
    """Convex hull of a finite vertex list (one point per row)."""

    vertices: np.ndarray
    # violation's NNLS matrix: the vertices as columns over a sum-to-one row
    _nnls_system: np.ndarray = field(init=False, repr=False)
    # violation's solver: scipy.optimize.nnls minus its input checks
    _nnls: object = field(init=False, repr=False)

    def __post_init__(self):
        v = _checked(self.vertices, (None, None), "VertexHull vertices")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_nnls_system", np.vstack([v.T, np.ones(v.shape[0])]))
        object.__setattr__(self, "_nnls", _compiled("scipy.optimize._slsqplib", "nnls"))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        # argmin returns the first (lowest-index) minimizer on ties
        i = int(self.vertices.dot(g).argmin())
        return self.vertices[i].copy()

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        # Nonnegative least squares over vertex weights with a sum-to-one row, capped like
        # scipy.optimize.nnls at 3 iterations per vertex; the residual is ~0 iff x is a convex
        # combination of the vertices. nnls leaves the matrix built at construction unchanged.
        target = np.empty(x.shape[0] + 1)
        target[:-1] = x
        target[-1] = 1.0
        _, resid, info = self._nnls(self._nnls_system, target, 3 * self.vertices.shape[0])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return float(resid)

    def diameter(self) -> float:
        v = self.vertices  # one row of squared distances at a time, not all n * n * dim differences
        return float(np.sqrt(max(((v - row) ** 2).sum(axis=1).max() for row in v)))


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
        object.__setattr__(self, "lower", _number(float, self.lower, "Box lower"))
        object.__setattr__(self, "upper", _number(float, self.upper, "Box upper"))
        if not -math.inf < self.lower < self.upper < math.inf:
            raise ValueError("Box requires finite lower < upper")
        object.__setattr__(self, "dim", _number(int, self.dim, "Box dimension", 1))

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
        object.__setattr__(self, "radius", _number(float, self.radius, "L1Ball radius",
                                                   positive=True))
        object.__setattr__(self, "dim", _number(int, self.dim, "L1Ball dimension", 1))

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        j = int(np.abs(g).argmax())  # lowest index on ties
        s = np.zeros(self.dim)
        s[j] = -self.radius if g[j] >= 0.0 else self.radius
        return s

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        return max(0.0, float(np.add.reduce(np.abs(x)) - self.radius))

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
        object.__setattr__(self, "radius", _number(float, self.radius, "NuclearBall radius",
                                                   positive=True))
        object.__setattr__(self, "rows", _number(int, self.rows, "NuclearBall rows", 1))
        object.__setattr__(self, "cols", _number(int, self.cols, "NuclearBall cols", 1))

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def lmo(self, gradient) -> np.ndarray:
        g = _check_vector(self.dim, gradient, "gradient")
        G = g.reshape(self.rows, self.cols)
        if not G.any():  # -0.0 counts as zero
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
        # power iteration on G^T G from a fixed seeded start vector. w = G^T (G v) is both the
        # Rayleigh-quotient product on v and the next iterate: two BLAS products a round, by
        # ndarray.dot and sqrt(w . w), the bits of @ and np.linalg.norm without their dispatch
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.cols)
        v /= np.linalg.norm(v)
        Gt, tol = G.T, self._power_tol
        Gv = G.dot(v)
        w = Gt.dot(Gv)
        rayleigh = 0.0
        for _ in range(self._power_max_iter):
            norm = math.sqrt(w.dot(w))
            if norm == 0.0:
                break
            v = w / norm
            Gv = G.dot(v)
            w = Gt.dot(Gv)
            new_rayleigh = float(v.dot(w))
            if abs(new_rayleigh - rayleigh) <= tol * max(1.0, new_rayleigh):
                break
            rayleigh = new_rayleigh
        u = Gv / np.linalg.norm(Gv)
        return u, v

    def violation(self, point) -> float:
        x = _check_vector(self.dim, point, "point")
        sigma = np.linalg.svd(x.reshape(self.rows, self.cols), compute_uv=False)
        nuc = float(np.add.reduce(sigma))
        return max(0.0, nuc - self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius


def contains(feasible_set, point, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff the point is within constraint slack ``tol`` of the set; ``tol`` may be inf."""
    if not tol >= 0:  # true for nan too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return feasible_set.violation(point) <= tol
