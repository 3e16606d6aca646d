"""Differentiable objective functions with values, gradients, and smoothness.

Every objective exposes ``value(x)``, ``gradient(x)``, a dimension ``dim``
and a smoothness constant ``smoothness`` (an upper bound on the Lipschitz
constant of the gradient). ``check_gradient`` compares the analytic gradient
against central finite differences.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import _checked, _compiled
from .tableau import _number

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


class QuadraticDistance:
    """f(x) = 0.5 ||x - target||^2."""

    def __init__(self, target):
        try:
            target = np.ravel(target)  # flattened first
        except ValueError:  # ragged: left as given, so _checked refuses it by name
            pass
        self.target = _checked(target, (None,), "QuadraticDistance target")

    @property
    def dim(self) -> int:
        return self.target.shape[0]

    @property
    def smoothness(self) -> float:
        return 1.0

    def value(self, x) -> float:
        x = _check_x(self.dim, x)
        return 0.5 * float(np.add.reduce((x - self.target) ** 2))

    def gradient(self, x) -> np.ndarray:
        x = _check_x(self.dim, x)
        return x - self.target


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
        self.design = _checked(design, (None, None), "LeastSquares design")
        self.response = _checked(response, self.design.shape[:1], "LeastSquares response")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @cached_property
    def smoothness(self) -> float:
        return float(np.linalg.norm(self.design, 2) ** 2)

    def _product(self, x) -> np.ndarray:
        return self.design.dot(x) - self.response  # the residual

    def _gradient_from(self, r) -> np.ndarray:
        return self.design.T.dot(r)

    def value(self, x) -> float:
        r = self._at(x)
        return 0.5 * float(r.dot(r))


class LogisticLoss(_DenseObjective):
    """Mean logistic loss over labels in {-1, +1}.

    f(x) = (1/m) sum_i log(1 + exp(-y_i a_i . x)). Using the mean keeps the
    smoothness constant (||A||_2^2 / (4m)) independent of the sample count.
    """

    def __init__(self, features, labels):
        self.features = _checked(features, (None, None), "LogisticLoss features")
        self.labels = _checked(labels, self.features.shape[:1], "LogisticLoss labels")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self._expit = _compiled("scipy.special._special_ufuncs", "expit")  # scipy.special.expit

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def smoothness(self) -> float:
        return float(np.linalg.norm(self.features, 2) ** 2) / (4.0 * self.features.shape[0])

    def _product(self, x) -> np.ndarray:
        return self.labels * self.features.dot(x)  # the margins

    def _gradient_from(self, margins) -> np.ndarray:
        return -self.features.T.dot(self.labels * self._expit(-margins)) / self.features.shape[0]

    def value(self, x) -> float:
        margins = self._at(x)
        return float(np.add.reduce(np.logaddexp(0.0, -margins)) / margins.shape[0])


class MatrixHuber:
    """Sum of Huber(delta) residuals on observed entries of a rows x cols matrix.

    Points are flattened matrices, entry (i, j) at flat index i * cols + j; index
    lists the observed flat indices and values their targets.
    """

    def __init__(self, index, values, rows: int, cols: int, delta: float = 1.0):
        self.delta = _number(float, delta, "MatrixHuber delta", positive=True)
        self.rows = _number(int, rows, "MatrixHuber rows", 1)
        self.cols = _number(int, cols, "MatrixHuber cols", 1)
        index = _checked(index, (None,), "MatrixHuber index")
        if (index % 1).any() or index.min() < 0 or index.max() >= self.dim:
            raise ValueError("MatrixHuber index entries must be whole numbers in [0, rows * cols)")
        self._idx = index.astype(int)
        self._vals = _checked(values, index.shape, "MatrixHuber values")
        self.smoothness = 1.0  # Huber curvature is at most 1 per entry

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def value(self, x) -> float:
        x = _check_x(self.dim, x)
        r = x[self._idx] - self._vals
        a = np.abs(r)
        quad = a < self.delta
        m = np.minimum(a, self.delta)  # a where quad, so no branch squares a large residual
        out = np.where(quad, 0.5 * m * m, self.delta * a - 0.5 * self.delta**2)
        return float(np.add.reduce(out))

    def gradient(self, x) -> np.ndarray:
        x = _check_x(self.dim, x)
        r = x[self._idx] - self._vals
        g = np.zeros(self.dim)
        np.add.at(g, self._idx, np.clip(r, -self.delta, self.delta))
        return g


class ScalarHuber(MatrixHuber):
    """Scalar Huber function: x^2/2 inside |x| < eps, eps|x| - eps^2/2 outside; the
    MatrixHuber of a 1 x 1 matrix whose one entry is observed with target 0 and delta eps."""

    def __init__(self, eps: float):
        self.eps = _number(float, eps, "ScalarHuber eps", positive=True)
        super().__init__([0], [0.0], 1, 1, delta=self.eps)


def check_gradient(obj, x, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences.

    The error at coordinate i is |g_i - fd_i| / max(1, |g_i|), and one NaN error
    makes the result NaN. Avoiding nonsmooth points (Huber kinks) is the caller's task.
    """
    h = _number(float, h, "finite-difference step h", positive=True)
    x = np.asarray(x, dtype=float).ravel()
    g = obj.gradient(x)
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)), initial=0.0))
