"""Canonical benchmark problems wiring objectives to feasible sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import gen_lowrank, gen_sensing
from .geometry import Box, L1Ball, NuclearBall, VertexHull
from .objectives import LeastSquares, LogisticLoss, MatrixHuber, QuadraticDistance, ScalarHuber

__all__ = [
    "Problem",
    "triangle",
    "scalar_box",
    "scalar_huber",
    "sensing_least_squares",
    "sensing_logistic",
    "lowrank_huber",
]


@dataclass(frozen=True, eq=False)
class Problem:
    """An objective, a feasible set, a start point, and the optimal value if known."""

    name: str
    objective: object
    feasible_set: object
    x0: np.ndarray
    f_star: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())


def triangle() -> Problem:
    """Quadratic distance to a boundary point of a triangle.

    The optimum x* = (0.2, 0) sits on the bottom edge, so late iterations
    zig-zag between the two bottom vertices — the classic slow regime.
    """
    hull = VertexHull([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    obj = QuadraticDistance(target=[0.2, 0.0])
    return Problem("triangle", obj, hull, x0=[-0.4, 0.3], f_star=0.0)


def scalar_box() -> Problem:
    """f(x) = x^2/2 on [-1, 1], started at 1; the 1/k lower-bound probe problem."""
    obj = QuadraticDistance(target=[0.0])
    return Problem("scalar_box", obj, Box(-1.0, 1.0, dim=1), x0=[1.0], f_star=0.0)


def scalar_huber() -> Problem:
    """Huber variant (eps = 0.1) of the scalar box problem (same LMO dynamics)."""
    return Problem("scalar_huber", ScalarHuber(0.1), Box(-1.0, 1.0, dim=1), x0=[1.0], f_star=0.0)


def sensing_least_squares(seed: int = 0) -> Problem:
    """l1-ball (radius 1000) least squares on gen_sensing's noiseless 500 x 100 data."""
    A, b, _ = gen_sensing(seed)
    return Problem("sensing", LeastSquares(A, b), L1Ball(1000.0, 100), x0=np.zeros(100))


def sensing_logistic(seed: int = 0) -> Problem:
    """l1-ball (radius 10) logistic regression on the sensing data; labels are sign(b).

    The radius keeps the optimum on the l1 boundary without saturating the
    loss, which is the regime where zig-zagging is visible.
    """
    A, b, _ = gen_sensing(seed)
    obj = LogisticLoss(A, np.where(b >= 0.0, 1.0, -1.0))
    return Problem("logistic", obj, L1Ball(10.0, 100), x0=np.zeros(100))


def lowrank_huber(users: int = 20, items: int = 15, rank: int = 2, seed: int = 0) -> Problem:
    """Nuclear-ball (radius 50) Huber (delta 1) regression on gen_lowrank's noisy ratings."""
    index, values = gen_lowrank(users, items, rank, seed)
    obj = MatrixHuber(index, values, users, items, delta=1.0)
    return Problem("lowrank", obj, NuclearBall(50.0, users, items), x0=np.zeros(obj.dim))


BUILDERS = {
    "triangle": triangle,
    "scalar_box": scalar_box,
    "scalar_huber": scalar_huber,
    "sensing": sensing_least_squares,
    "logistic": sensing_logistic,
    "lowrank": lowrank_huber,
}
