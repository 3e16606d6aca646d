import math
import re

import numpy as np
import pytest

from fwflow.data import gen_lowrank, gen_sensing
from fwflow.objectives import MatrixHuber
from fwflow.problems import lowrank_huber
from fwflow.tableau import ConfigError


class TestGenSensing:
    def test_sparsity_count(self):
        _, _, true_x = gen_sensing(seed=0)
        assert np.count_nonzero(true_x) == 10

    def test_determinism(self):
        a = gen_sensing(seed=42)
        b = gen_sensing(seed=42)
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)


def _reference_sensing(seed):
    """The earlier generator body at the settings both sensing problems used, kept verbatim."""
    m, n, sparsity, noise_sd = 500, 100, 0.1, 0.0
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sensing_bit_identical_to_reference(seed):
    for x, y in zip(gen_sensing(seed), _reference_sensing(seed), strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize(
    "generate, message",
    [
        (lambda: gen_lowrank(2.5, 5, 2), "users must be an integer, got 2.5"),
        (lambda: gen_lowrank(1, 1, 1), r"users \* items must be >= 2, got 1 x 1"),
    ],
    ids=["lowrank-users-2.5", "lowrank-1x1"],
)
def test_rejected_with_message(generate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate()


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "seed must be >= 0, got -1"), (2.5, "seed must be an integer, got 2.5"),
     (math.nan, "seed must be an integer, got nan"), (math.inf, "seed must be an integer, got inf"),
     (True, "seed must be a number, got True"), ("x", "seed must be a number, got 'x'")],
    ids=["negative", "fractional", "nan", "inf", "boolean", "string"],
)
@pytest.mark.parametrize("generate", [gen_sensing, lambda seed: gen_lowrank(4, 3, 1, seed)],
                         ids=["sensing", "lowrank"])
def test_seed_refused_by_name(generate, seed, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        generate(seed)


def test_numpy_int_seed_reaches_the_rng_exactly():
    # 2**62 + 1 has no float, so a seed read through float would draw the data of seed 2**62
    seed = 2**62 + 1
    A, _, _ = gen_sensing(np.int64(seed))
    assert A.tobytes() == np.random.default_rng(seed).standard_normal((500, 100)).tobytes()
    assert A.tobytes() != gen_sensing(2**62)[0].tobytes()
    for x, y in zip(gen_lowrank(4, 3, 1, np.int64(seed)), gen_lowrank(4, 3, 1, seed), strict=True):
        assert x.tobytes() == y.tobytes()


class TestGenLowrank:
    def test_index_ascending_without_duplicates(self):
        index, _ = gen_lowrank(8, 8, 2, seed=3)
        assert np.all(np.diff(index) > 0)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            gen_lowrank(6, 5, 0)
        with pytest.raises(ValueError):
            gen_lowrank(6, 5, 6)

    def test_determinism(self):
        a = gen_lowrank(8, 8, 2, seed=3)
        b = gen_lowrank(8, 8, 2, seed=3)
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)


def _reference_lowrank(users, items, rank, observed_fraction, noise_sd, seed):
    """The earlier per-entry generator loop and MatrixHuber index build, kept verbatim.

    Returns the (index, values) arrays that MatrixHuber built from its entry list.
    """
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((users, rank))
    V = rng.standard_normal((items, rank))
    M = U @ V.T
    total = users * items
    n_obs = int(round(observed_fraction * total))
    flat = rng.choice(total, size=n_obs, replace=False)
    entries = []
    for f in sorted(flat):
        i, j = divmod(int(f), items)
        v = M[i, j]
        if noise_sd > 0:
            v += noise_sd * rng.standard_normal()
        entries.append((i, j, float(v)))
    idx = np.array([i * items + j for i, j, _ in entries], dtype=int)
    vals = np.array([v for _, _, v in entries], dtype=float)
    return idx, vals


@pytest.mark.parametrize(
    "users, items, rank, seed",
    [(200, 150, 5, 0), (20, 15, 2, 0), (7, 3, 1, 5), (2, 1, 1, 0)],
    ids=["200x150-noise-0.1", "20x15", "7x3", "2x1"],
)
def test_lowrank_bit_identical_to_reference(users, items, rank, seed):
    index, values = gen_lowrank(users, items, rank, seed)
    built = lowrank_huber(users, items, rank, seed).objective
    idx, vals = _reference_lowrank(users, items, rank, 0.5, 0.1, seed)
    for obj in (MatrixHuber(index, values, users, items), built):
        assert np.array_equal(obj._idx, idx) and obj._idx.dtype == idx.dtype
        assert np.array_equal(obj._vals, vals)
