"""Synthetic problem data.

All randomness goes through numpy's default_rng (PCG64) with an explicit
seed, so generated data — and everything downstream of it — is
reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gen_sensing", "gen_lowrank"]


def gen_sensing(m: int, n: int, sparsity: float, noise_sd: float = 0.0, seed: int = 0):
    """Synthetic sensing problem: Gaussian design, sparse Gaussian ground truth.

    Returns (A, b, true_x) with design A (m x n) and response b = A @ true_x + noise.
    round(sparsity * n) entries of true_x are nonzero, at seeded-random positions.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must be in (0, 1]")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    k = int(round(sparsity * n))
    support = rng.choice(n, size=k, replace=False)
    true_x = np.zeros(n)
    true_x[support] = rng.standard_normal(k)
    b = A @ true_x
    if noise_sd > 0:
        b = b + noise_sd * rng.standard_normal(m)
    return A, b, true_x


def gen_lowrank(
    users: int,
    items: int,
    rank: int,
    observed_fraction: float,
    noise_sd: float = 0.0,
    seed: int = 0,
):
    """Synthetic low-rank ratings: seeded Gaussian factors U V^T, partial observation.

    Returns (index, values): the ascending row-major flat indices i * items + j
    of the observed entries and their values, plus Gaussian noise if noise_sd > 0.
    """
    if rank < 1 or rank > min(users, items):
        raise ValueError("rank must be in [1, min(users, items)]")
    if not 0.0 < observed_fraction <= 1.0:
        raise ValueError("observed_fraction must be in (0, 1]")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((users, rank))
    V = rng.standard_normal((items, rank))
    M = U @ V.T
    total = users * items
    n_obs = int(round(observed_fraction * total))
    index = np.sort(rng.choice(total, size=n_obs, replace=False))
    values = M.ravel()[index]
    if noise_sd > 0:
        values = values + noise_sd * rng.standard_normal(n_obs)
    return index, values
