"""Differentiable objective functions with values, gradients, and smoothness.

Every objective exposes ``value(x)``, ``gradient(x)``, a dimension ``dim``
and a smoothness constant ``smoothness`` (an upper bound on the Lipschitz
constant of the gradient). ``check_gradient`` compares the analytic gradient
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "QuadraticDistance",
    "ScalarHuber",
    "LeastSquares",
    "LogisticLoss",
    "MatrixHuber",
    "check_gradient",
]


def _check_x(dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != dim:
        raise ValueError(f"point dimension {x.shape[0]} does not match objective dimension {dim}")
    return x


@dataclass(frozen=True, eq=False)
class QuadraticDistance:
    """f(x) = 0.5 ||x - target||^2."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float).ravel())

    @property
    def dim(self) -> int:
        return self.target.shape[0]

    @property
    def smoothness(self) -> float:
        return 1.0

    def value(self, x) -> float:
        x = _check_x(self.dim, x)
        return 0.5 * float(((x - self.target) ** 2).sum())

    def gradient(self, x) -> np.ndarray:
        x = _check_x(self.dim, x)
        return x - self.target


@dataclass(frozen=True)
class ScalarHuber:
    """Scalar Huber function: x^2/2 inside |x| < eps, eps|x| - eps^2/2 outside."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("ScalarHuber eps must be positive")

    dim = 1
    smoothness = 1.0

    def value(self, x) -> float:
        v = float(_check_x(1, x)[0])
        if abs(v) < self.eps:
            return 0.5 * v * v
        return self.eps * abs(v) - 0.5 * self.eps**2

    def gradient(self, x) -> np.ndarray:
        v = float(_check_x(1, x)[0])
        if abs(v) < self.eps:
            return np.array([v])
        return np.array([self.eps if v > 0 else -self.eps])


class _DenseObjective:
    """Value and gradient at one point share one matrix product: the last point's product
    and gradient are kept, keyed on its bytes, so the data arrays must not change."""

    _key = _prod = _grad = None

    def _at(self, x) -> np.ndarray:
        x = _check_x(self.dim, x)
        if (key := x.tobytes()) != self._key:
            self._key, self._prod, self._grad = key, self._product(x), None
        return self._prod

    def gradient(self, x) -> np.ndarray:
        prod = self._at(x)
        if self._grad is None:
            self._grad = self._gradient_from(prod)
        return self._grad.copy()


class LeastSquares(_DenseObjective):
    """f(x) = 0.5 ||A x - b||^2."""

    def __init__(self, design, response):
        self.design = np.asarray(design, dtype=float)
        self.response = np.asarray(response, dtype=float).ravel()
        if self.design.shape[0] != self.response.shape[0]:
            raise ValueError("design and response row counts differ")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @cached_property
    def smoothness(self) -> float:
        return float(np.linalg.norm(self.design, 2) ** 2)

    def _product(self, x) -> np.ndarray:
        return self.design @ x - self.response  # the residual

    def _gradient_from(self, r) -> np.ndarray:
        return self.design.T @ r

    def value(self, x) -> float:
        r = self._at(x)
        return 0.5 * float(r @ r)


def expit(z):
    """scipy.special.expit, which this module name is rebound to on the first call, so that
    only the logistic loss loads scipy.special; _gradient_from looks the name up per call."""
    global expit
    from scipy.special import expit
    return expit(z)


class LogisticLoss(_DenseObjective):
    """Mean logistic loss over labels in {-1, +1}.

    f(x) = (1/m) sum_i log(1 + exp(-y_i a_i . x)). Using the mean keeps the
    smoothness constant (||A||_2^2 / (4m)) independent of the sample count.
    """

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float).ravel()
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels row counts differ")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def smoothness(self) -> float:
        return float(np.linalg.norm(self.features, 2) ** 2) / (4.0 * self.features.shape[0])

    def _product(self, x) -> np.ndarray:
        return self.labels * (self.features @ x)  # the margins

    def _gradient_from(self, margins) -> np.ndarray:
        return -(self.features.T @ (self.labels * expit(-margins))) / self.features.shape[0]

    def value(self, x) -> float:
        margins = self._at(x)
        return float(np.logaddexp(0.0, -margins).sum() / margins.shape[0])


class MatrixHuber:
    """Sum of Huber(delta) residuals on observed entries of a rows x cols matrix.

    Points are flattened matrices, entry (i, j) at flat index i * cols + j; index
    lists the observed flat indices and values their targets.
    """

    def __init__(self, index, values, rows: int, cols: int, delta: float = 1.0):
        if not delta > 0:
            raise ValueError("MatrixHuber delta must be positive")
        self.rows = rows
        self.cols = cols
        self.delta = float(delta)
        self._idx = np.asarray(index, dtype=int).ravel()
        self._vals = np.asarray(values, dtype=float).ravel()
        if self._idx.shape != self._vals.shape:
            raise ValueError("index and values lengths differ")
        if self._idx.size and (self._idx.min() < 0 or self._idx.max() >= rows * cols):
            raise ValueError("entry indices outside matrix shape")
        self.smoothness = 1.0  # Huber curvature is at most 1 per entry

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def value(self, x) -> float:
        x = _check_x(self.dim, x)
        r = x[self._idx] - self._vals
        a = np.abs(r)
        quad = a < self.delta
        out = np.where(quad, 0.5 * r * r, self.delta * a - 0.5 * self.delta**2)
        return float(out.sum())

    def gradient(self, x) -> np.ndarray:
        x = _check_x(self.dim, x)
        r = x[self._idx] - self._vals
        g = np.zeros(self.dim)
        np.add.at(g, self._idx, np.clip(r, -self.delta, self.delta))
        return g


def check_gradient(obj, x, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences.

    The error at coordinate i is |g_i - fd_i| / max(1, |g_i|). Nonsmooth
    points (Huber kinks) are the caller's responsibility to avoid.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float).ravel()
    g = obj.gradient(x)
    worst = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
        err = abs(g[i] - fd) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst
