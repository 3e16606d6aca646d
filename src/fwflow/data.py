"""Synthetic problem data.

All randomness goes through numpy's default_rng (PCG64) with an explicit
seed, so generated data — and everything downstream of it — is
reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .tableau import _number

__all__ = ["gen_sensing", "gen_lowrank"]


def gen_sensing(seed: int = 0):
    """Noiseless synthetic sensing problem: 500 x 100 Gaussian design, 10-sparse Gaussian truth.

    Returns (A, b, true_x) with b = A @ true_x; the 10 nonzero entries of true_x sit at
    seeded-random positions.
    """
    rng = np.random.default_rng(_number(int, seed, "seed", 0))
    A = rng.standard_normal((500, 100))
    support = rng.choice(100, size=10, replace=False)  # first: the draw order fixes the data
    true_x = np.zeros(100)
    true_x[support] = rng.standard_normal(10)
    return A, A @ true_x, true_x


def gen_lowrank(users: int, items: int, rank: int, seed: int = 0):
    """Synthetic low-rank ratings: seeded Gaussian factors U V^T, half the entries observed.

    Returns (index, values): the ascending row-major flat indices i * items + j of the
    observed entries, and their values plus Gaussian noise of sd 0.1.
    """
    users, items = _number(int, users, "users", 1), _number(int, items, "items", 1)
    rank = _number(int, rank, "rank", 1)
    if users * items < 2:
        raise ValueError(f"users * items must be >= 2, got {users} x {items}")
    if rank > min(users, items):
        raise ValueError("rank must be in [1, min(users, items)]")
    rng = np.random.default_rng(_number(int, seed, "seed", 0))
    U = rng.standard_normal((users, rank))
    V = rng.standard_normal((items, rank))
    total = users * items
    index = np.sort(rng.choice(total, size=round(0.5 * total), replace=False))
    return index, (U @ V.T).ravel()[index] + 0.1 * rng.standard_normal(index.size)
